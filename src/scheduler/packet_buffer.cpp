#include "scheduler/packet_buffer.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/assert.hpp"

namespace wfqs::scheduler {

SharedPacketBuffer::SharedPacketBuffer() : SharedPacketBuffer(Config{}) {}

SharedPacketBuffer::SharedPacketBuffer(const Config& config)
    : cell_bytes_(config.cell_bytes),
      cell_shift_(static_cast<unsigned>(std::countr_zero(config.cell_bytes))) {
    WFQS_REQUIRE(cell_bytes_ >= 16, "cells must hold at least a header");
    WFQS_REQUIRE(std::has_single_bit(cell_bytes_), "cell size must be a power of two");
    total_cells_ = config.total_bytes / cell_bytes_;
    WFQS_REQUIRE(total_cells_ >= 2, "buffer too small for any packet");
    WFQS_REQUIRE(total_cells_ <= std::numeric_limits<BufferRef>::max(),
                 "buffer has more cells than a BufferRef can address");
}

std::optional<BufferRef> SharedPacketBuffer::store(const net::Packet& packet) {
    const std::size_t need = cells_for(packet.size_bytes);
    if (total_cells_ - used_cells_ < need) {
        ++drops_;
        return std::nullopt;
    }
    BufferRef ref;
    if (free_descriptors_.empty()) {
        ref = static_cast<BufferRef>(descriptors_.size());
        descriptors_.emplace_back();
    } else {
        ref = free_descriptors_.back();
        free_descriptors_.pop_back();
    }
    Descriptor& d = descriptors_[ref];
    d.packet = packet;
    d.cells = static_cast<std::uint32_t>(need);
    used_cells_ += need;
    peak_used_cells_ = std::max(peak_used_cells_, used_cells_);
    return ref;
}

const net::Packet& SharedPacketBuffer::peek(BufferRef ref) const {
    WFQS_ASSERT_MSG(is_stored(ref), "peek of a ref that is not a stored packet head");
    return descriptors_[ref].packet;
}

net::Packet SharedPacketBuffer::retrieve(BufferRef ref) {
    WFQS_ASSERT_MSG(is_stored(ref),
                    "retrieve of a ref that is not a stored packet head");
    Descriptor& d = descriptors_[ref];
    used_cells_ -= d.cells;
    d.cells = 0;
    free_descriptors_.push_back(ref);
    return d.packet;
}

}  // namespace wfqs::scheduler
