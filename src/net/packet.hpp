// Packet and flow types shared by the traffic generators, schedulers, and
// analysis.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"

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

/// A link rate with a precomputed reciprocal: transmission_ns(size)
/// equals net::transmission_ns(size, bps()) for every size, with a
/// multiply by the reciprocal in place of a 128-bit division. The
/// rounded-up bit time (< 2^66) is divided by the normalised rate as a
/// two-word by one-word division by an invariant divisor (Möller and
/// Granlund, "Improved division by invariant integers", 2011, Algorithm 4).
class LinkRate {
public:
    explicit constexpr LinkRate(std::uint64_t rate_bps)
        : rate_(positive(rate_bps)),
          shift_(static_cast<unsigned>(std::countl_zero(rate_))),
          d_(rate_ << shift_),
          v_(static_cast<std::uint64_t>(
              ((static_cast<unsigned __int128>(~d_) << 64) | ~std::uint64_t{0}) / d_)) {}

    constexpr std::uint64_t bps() const { return rate_; }

    constexpr TimeNs transmission_ns(std::uint32_t size_bytes) const {
        using U128 = unsigned __int128;
        const U128 n = static_cast<U128>(size_bytes) * 8'000'000'000ULL + (rate_ - 1);
        // net::transmission_ns keeps the quotient's low word, which only
        // the numerator's high word modulo the rate affects. That word is
        // below 4, so it is already reduced for any rate from 4 b/s.
        std::uint64_t n1 = static_cast<std::uint64_t>(n >> 64);
        const std::uint64_t n0 = static_cast<std::uint64_t>(n);
        if (n1 >= rate_) [[unlikely]]
            n1 %= rate_;
        // Scale numerator and rate alike until the rate's top bit is set.
        const std::uint64_t u1 = (n1 << shift_) | (n0 >> 1 >> (63 - shift_));
        const std::uint64_t u0 = n0 << shift_;
        const U128 q = static_cast<U128>(v_) * u1 + ((static_cast<U128>(u1 + 1) << 64) | u0);
        std::uint64_t q1 = static_cast<std::uint64_t>(q >> 64);
        std::uint64_t r = u0 - q1 * d_;
        // The estimate is one too high about half the time: correct it
        // without a branch. Once in a great while it is one too low.
        const std::uint64_t high =
            0 - static_cast<std::uint64_t>(r > static_cast<std::uint64_t>(q));
        q1 += high;
        r += high & d_;
        if (r >= d_) [[unlikely]]
            ++q1;
        return q1;
    }

private:
    static constexpr std::uint64_t positive(std::uint64_t rate_bps) {
        WFQS_REQUIRE(rate_bps > 0, "link rate must be positive");
        return rate_bps;
    }

    std::uint64_t rate_;
    unsigned shift_;  ///< leading zeros of the rate
    std::uint64_t d_;  ///< the rate shifted so its top bit is set
    std::uint64_t v_;  ///< floor((2^128 - 1) / d_) - 2^64
};

}  // namespace wfqs::net
