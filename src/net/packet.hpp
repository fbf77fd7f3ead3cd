// Packet and flow types shared by the traffic generators, schedulers, and
// analysis.
#pragma once

#include <cstdint>
#include <vector>

namespace wfqs::net {

using TimeNs = std::uint64_t;
using FlowId = std::uint32_t;

struct Packet {
    std::uint64_t id = 0;
    FlowId flow = 0;
    std::uint32_t size_bytes = 0;
    TimeNs arrival_ns = 0;

    std::uint32_t size_bits() const { return size_bytes * 8; }

    friend bool operator==(const Packet&, const Packet&) = default;
};

/// Completed transmission record produced by the simulation driver.
struct PacketRecord {
    Packet packet;
    TimeNs service_start_ns = 0;
    TimeNs departure_ns = 0;  ///< transmission completed

    TimeNs delay_ns() const { return departure_ns - packet.arrival_ns; }

    friend bool operator==(const PacketRecord&, const PacketRecord&) = default;
};

/// Serialization time of a packet on a link.
constexpr TimeNs transmission_ns(std::uint32_t size_bytes, std::uint64_t rate_bps) {
    return static_cast<TimeNs>(
        (static_cast<unsigned __int128>(size_bytes) * 8 * 1'000'000'000ULL + rate_bps - 1) /
        rate_bps);
}

}  // namespace wfqs::net
