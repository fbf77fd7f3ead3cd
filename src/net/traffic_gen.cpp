#include "net/traffic_gen.hpp"

#include <cmath>

#include "common/assert.hpp"

namespace wfqs::net {
namespace {

TimeNs seconds_to_ns(double s) {
    return static_cast<TimeNs>(s * 1e9);
}

}  // namespace

// ------------------------------------------------------------------- CBR

CbrSource::CbrSource(std::uint64_t rate_bps, std::uint32_t packet_bytes,
                     TimeNs start_ns, TimeNs end_ns)
    : interval_(transmission_ns(packet_bytes, rate_bps)),
      packet_bytes_(packet_bytes),
      next_(start_ns),
      end_(end_ns) {
    WFQS_REQUIRE(rate_bps > 0 && packet_bytes > 0, "CBR needs positive rate and size");
    WFQS_REQUIRE(interval_ > 0, "CBR rate too high for the packet size");
}

std::optional<Arrival> CbrSource::next() {
    if (next_ >= end_) return std::nullopt;
    const Arrival a{next_, packet_bytes_};
    next_ += interval_;
    return a;
}

// --------------------------------------------------------------- Poisson

PoissonSource::PoissonSource(double rate_pps, std::uint32_t min_bytes,
                             std::uint32_t max_bytes, TimeNs end_ns, std::uint64_t seed)
    : rate_pps_(rate_pps),
      min_bytes_(min_bytes),
      max_bytes_(max_bytes),
      end_(end_ns),
      rng_(seed) {
    WFQS_REQUIRE(rate_pps > 0.0, "Poisson rate must be positive");
    WFQS_REQUIRE(min_bytes > 0 && min_bytes <= max_bytes, "bad packet size range");
}

std::optional<Arrival> PoissonSource::next() {
    t_ += seconds_to_ns(rng_.next_exponential(1.0 / rate_pps_));
    if (t_ >= end_) return std::nullopt;
    const auto size = static_cast<std::uint32_t>(rng_.next_range(min_bytes_, max_bytes_));
    return Arrival{t_, size};
}

// ---------------------------------------------------------- on-off Pareto

OnOffParetoSource::OnOffParetoSource(std::uint64_t peak_rate_bps,
                                     std::uint32_t packet_bytes, double mean_on_s,
                                     double mean_off_s, double alpha, TimeNs end_ns,
                                     std::uint64_t seed)
    : packet_bytes_(packet_bytes),
      mean_on_s_(mean_on_s),
      mean_off_s_(mean_off_s),
      alpha_(alpha),
      end_(end_ns),
      rng_(seed) {
    WFQS_REQUIRE(peak_rate_bps > 0 && packet_bytes > 0, "bad on-off source config");
    WFQS_REQUIRE(alpha > 1.0, "Pareto alpha must exceed 1 for a finite mean");
    gap_ = transmission_ns(packet_bytes, peak_rate_bps);
}

std::optional<Arrival> OnOffParetoSource::next() {
    if (t_ >= burst_end_) {
        // Draw the next OFF gap and ON burst. Pareto with mean m and shape
        // a has xm = m (a-1)/a.
        const double off = rng_.next_exponential(mean_off_s_);
        const double xm = mean_on_s_ * (alpha_ - 1.0) / alpha_;
        const double on = rng_.next_pareto(alpha_, xm);
        t_ += seconds_to_ns(off);
        burst_end_ = t_ + seconds_to_ns(on);
    }
    if (t_ >= end_) return std::nullopt;
    const Arrival a{t_, packet_bytes_};
    t_ += gap_;
    return a;
}

// ------------------------------------------------------------------ VoIP

VoipSource::VoipSource(TimeNs end_ns, std::uint64_t seed, std::uint32_t frame_bytes)
    : frame_bytes_(frame_bytes), end_(end_ns), rng_(seed) {}

std::optional<Arrival> VoipSource::next() {
    constexpr TimeNs kFrameInterval = 20'000'000;  // 20 ms
    if (t_ == 0 && spurt_end_ == 0) {
        // The call opens with a talk spurt.
        spurt_end_ = seconds_to_ns(rng_.next_exponential(1.0));
    }
    if (t_ >= spurt_end_) {
        // Mean 1.0 s talk spurts separated by mean 1.35 s silences
        // (classic Brady voice model).
        t_ = spurt_end_ + seconds_to_ns(rng_.next_exponential(1.35));
        spurt_end_ = t_ + seconds_to_ns(rng_.next_exponential(1.0));
    }
    if (t_ >= end_) return std::nullopt;
    const Arrival a{t_, frame_bytes_};
    t_ += kFrameInterval;
    return a;
}

// ----------------------------------------------------------------- video

VideoSource::VideoSource(double fps, std::uint32_t mean_frame_bytes,
                         std::uint32_t mtu_bytes, TimeNs end_ns, std::uint64_t seed)
    : frame_interval_(seconds_to_ns(1.0 / fps)),
      mean_frame_bytes_(mean_frame_bytes),
      mtu_bytes_(mtu_bytes),
      end_(end_ns),
      rng_(seed) {
    WFQS_REQUIRE(fps > 0.0 && mean_frame_bytes > 0 && mtu_bytes > 0,
                 "bad video source config");
}

std::optional<Arrival> VideoSource::next() {
    while (true) {
        if (remaining_in_frame_ == 0) {
            if (frame_time_ >= end_) return std::nullopt;
            // Pareto frame sizes (shape 1.8) around the mean.
            const double xm = mean_frame_bytes_ * (1.8 - 1.0) / 1.8;
            remaining_in_frame_ = static_cast<std::uint32_t>(
                std::min(rng_.next_pareto(1.8, xm), 64.0 * mean_frame_bytes_));
            fragment_index_ = 0;
            frame_time_ += frame_interval_;
        }
        const TimeNs t = frame_time_ - frame_interval_ +
                         static_cast<TimeNs>(fragment_index_) * 2'000;  // 2 µs spacing
        if (t >= end_) return std::nullopt;
        const std::uint32_t chunk = std::min(remaining_in_frame_, mtu_bytes_);
        remaining_in_frame_ -= chunk;
        ++fragment_index_;
        if (chunk == 0) continue;
        return Arrival{t, chunk};
    }
}

// -------------------------------------------------------------- profiles

std::vector<FlowSpec> make_mixed_profile(TimeNs end_ns, std::uint64_t seed) {
    std::vector<FlowSpec> flows;
    flows.push_back({std::make_unique<VoipSource>(end_ns, seed + 1), 8});
    flows.push_back({std::make_unique<VoipSource>(end_ns, seed + 2), 8});
    flows.push_back({std::make_unique<VideoSource>(30.0, 12000, 1500, end_ns, seed + 3), 16});
    flows.push_back(
        {std::make_unique<CbrSource>(2'000'000, 500, 0, end_ns), 4});
    flows.push_back({std::make_unique<PoissonSource>(800.0, 64, 1500, end_ns, seed + 4), 2});
    flows.push_back({std::make_unique<OnOffParetoSource>(10'000'000, 1500, 0.05, 0.2,
                                                         1.5, end_ns, seed + 5),
                     1});
    flows.push_back({std::make_unique<OnOffParetoSource>(10'000'000, 1500, 0.05, 0.2,
                                                         1.5, end_ns, seed + 6),
                     1});
    return flows;
}

std::vector<FlowSpec> make_voip_heavy_profile(TimeNs end_ns, std::uint64_t seed) {
    std::vector<FlowSpec> flows;
    for (int i = 0; i < 12; ++i)
        flows.push_back({std::make_unique<VoipSource>(end_ns, seed + i), 8});
    flows.push_back({std::make_unique<OnOffParetoSource>(50'000'000, 1500, 0.1, 0.1,
                                                         1.5, end_ns, seed + 100),
                     1});
    return flows;
}

}  // namespace wfqs::net
