#include "scheduler/packet_buffer.hpp"

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

const net::Packet& SharedPacketBuffer::peek(BufferRef ref) const {
    WFQS_ASSERT_MSG(is_stored(ref), "peek of a ref that is not a stored packet head");
    return descriptors_[ref].packet;
}

}  // namespace wfqs::scheduler
