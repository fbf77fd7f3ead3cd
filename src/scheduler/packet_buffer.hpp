// Shared packet buffer — the middle block of the scheduler architecture
// (Fig. 1; ref [9] "a shared buffer architecture for a gigabit ethernet
// packet switch").
//
// Packets of any size share one pool of fixed-size cells, exactly like
// the referenced shared-buffer switch: a packet occupies ceil(size/cell)
// cells and is tail-dropped when fewer cells are free. The cell chain
// carries no modeled cycles, so it is accounted but not walked: the pool
// is a free-cell count, and each stored packet is one descriptor in a
// slab that grows on demand. A store returns the descriptor's index — the
// pointer the sorter carries next to the tag — and retrieval frees it;
// both cost O(1) whatever the packet size.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/packet.hpp"

namespace wfqs::scheduler {

using BufferRef = std::uint32_t;

class SharedPacketBuffer {
public:
    struct Config {
        std::size_t total_bytes = 4 << 20;  ///< pool size
        std::size_t cell_bytes = 64;        ///< a power of two, at least 16
    };

    SharedPacketBuffer();
    explicit SharedPacketBuffer(const Config& config);

    /// Store a packet; returns its descriptor index, or nullopt when the
    /// free pool cannot hold it (tail drop).
    std::optional<BufferRef> store(const net::Packet& packet);

    /// Retrieve and free a stored packet.
    net::Packet retrieve(BufferRef ref);

    /// Inspect a stored packet without freeing it (the schedulers' header
    /// lookup, e.g. DRR checking the head-of-line size).
    const net::Packet& peek(BufferRef ref) const;

    std::size_t stored_packets() const {
        return descriptors_.size() - free_descriptors_.size();
    }
    std::size_t used_cells() const { return used_cells_; }
    std::size_t total_cells() const { return total_cells_; }
    std::uint64_t drops() const { return drops_; }
    std::size_t peak_used_cells() const { return peak_used_cells_; }

private:
    struct Descriptor {
        net::Packet packet;
        std::uint32_t cells = 0;  ///< 0 while the descriptor is free
    };
    /// ceil(bytes / cell), at least one cell: a shift, not a divide.
    std::size_t cells_for(std::uint32_t bytes) const {
        const std::size_t b = bytes == 0 ? 1 : bytes;
        return (b + cell_bytes_ - 1) >> cell_shift_;
    }
    bool is_stored(BufferRef ref) const {
        return ref < descriptors_.size() && descriptors_[ref].cells != 0;
    }

    std::size_t cell_bytes_;
    unsigned cell_shift_;  ///< log2(cell_bytes_)
    std::size_t total_cells_;
    std::size_t used_cells_ = 0;
    std::vector<Descriptor> descriptors_;
    std::vector<BufferRef> free_descriptors_;
    std::size_t peak_used_cells_ = 0;
    std::uint64_t drops_ = 0;
};

}  // namespace wfqs::scheduler
