// Synthetic traffic sources for the evaluation workloads.
//
// The paper's Fig. 6 discussion names the profiles we need: "streaming
// VoIP is likely to produce a distribution weighted to the left, while a
// diverse mix of traffic will have a classic bell curve", and §IV sizes
// the line-rate claim around 140-byte average packets. The generators
// here synthesize those mixes deterministically from a seed:
//
//   CBR      — constant bit rate, fixed packet size (video/TDM-like).
//   Poisson  — exponential inter-arrivals (classic aggregate model).
//   OnOffPareto — heavy-tailed bursts (self-similar data traffic).
//   VoIP     — 20-ms voice frames inside exponential talk spurts.
//   Video    — periodic frames with heavy-tailed frame sizes split into
//              MTU-sized packets.
//
// End-of-window convention: every source emits arrivals over the
// half-open interval [start_ns, end_ns). An arrival stamped exactly
// end_ns is NOT emitted, so back-to-back windows [0,T) and [T,2T)
// partition time with no duplicated or lost boundary arrival. Sources
// enforce it uniformly as `time >= end -> exhausted`; a workload that
// wants an inclusive horizon passes end_ns + 1.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/packet.hpp"

namespace wfqs::net {

struct Arrival {
    TimeNs time_ns;
    std::uint32_t size_bytes;
};

/// A stream of arrivals with non-decreasing times, ending with nullopt.
class TrafficSource {
public:
    virtual ~TrafficSource() = default;
    virtual std::optional<Arrival> next() = 0;
    virtual std::string name() const = 0;
};

class CbrSource final : public TrafficSource {
public:
    CbrSource(std::uint64_t rate_bps, std::uint32_t packet_bytes, TimeNs start_ns,
              TimeNs end_ns);
    std::optional<Arrival> next() override;
    std::string name() const override { return "CBR"; }

private:
    TimeNs interval_;
    std::uint32_t packet_bytes_;
    TimeNs next_;
    TimeNs end_;
};

class PoissonSource final : public TrafficSource {
public:
    /// Exponential inter-arrivals at `rate_pps`; packet sizes uniform in
    /// [min_bytes, max_bytes].
    PoissonSource(double rate_pps, std::uint32_t min_bytes, std::uint32_t max_bytes,
                  TimeNs end_ns, std::uint64_t seed);
    std::optional<Arrival> next() override;
    std::string name() const override { return "Poisson"; }

private:
    double rate_pps_;
    std::uint32_t min_bytes_;
    std::uint32_t max_bytes_;
    TimeNs end_;
    TimeNs t_ = 0;
    Rng rng_;
};

class OnOffParetoSource final : public TrafficSource {
public:
    /// During an ON period packets of `packet_bytes` are sent back-to-back
    /// at `peak_rate_bps`; ON durations are Pareto(alpha) with the given
    /// mean, OFF durations exponential with mean `mean_off_s`.
    OnOffParetoSource(std::uint64_t peak_rate_bps, std::uint32_t packet_bytes,
                      double mean_on_s, double mean_off_s, double alpha, TimeNs end_ns,
                      std::uint64_t seed);
    std::optional<Arrival> next() override;
    std::string name() const override { return "on-off Pareto"; }

private:
    std::uint32_t packet_bytes_;
    TimeNs gap_ = 0;  ///< serialization time of one packet at the peak rate
    double mean_on_s_;
    double mean_off_s_;
    double alpha_;
    TimeNs end_;
    TimeNs t_ = 0;
    TimeNs burst_end_ = 0;
    Rng rng_;
};

class VoipSource final : public TrafficSource {
public:
    /// 20-ms frames of `frame_bytes` (default 200 B ≈ G.711 + headers)
    /// during talk spurts; spurt/silence both exponential.
    VoipSource(TimeNs end_ns, std::uint64_t seed, std::uint32_t frame_bytes = 200);
    std::optional<Arrival> next() override;
    std::string name() const override { return "VoIP"; }

private:
    std::uint32_t frame_bytes_;
    TimeNs end_;
    TimeNs t_ = 0;
    TimeNs spurt_end_ = 0;
    Rng rng_;
};

class VideoSource final : public TrafficSource {
public:
    /// `fps` frames per second; frame sizes Pareto-distributed around
    /// `mean_frame_bytes`, fragmented into `mtu_bytes` packets sent
    /// back-to-back at frame boundaries.
    VideoSource(double fps, std::uint32_t mean_frame_bytes, std::uint32_t mtu_bytes,
                TimeNs end_ns, std::uint64_t seed);
    std::optional<Arrival> next() override;
    std::string name() const override { return "video"; }

private:
    TimeNs frame_interval_;
    std::uint32_t mean_frame_bytes_;
    std::uint32_t mtu_bytes_;
    TimeNs end_;
    TimeNs frame_time_ = 0;
    std::uint32_t remaining_in_frame_ = 0;
    std::uint32_t fragment_index_ = 0;
    Rng rng_;
};

/// A flow bound to a source and a fair-queueing weight.
struct FlowSpec {
    std::unique_ptr<TrafficSource> source;
    std::uint32_t weight;
};

/// Pre-built workload mixes used across the benches.
std::vector<FlowSpec> make_mixed_profile(TimeNs end_ns, std::uint64_t seed);
std::vector<FlowSpec> make_voip_heavy_profile(TimeNs end_ns, std::uint64_t seed);

}  // namespace wfqs::net
