// HostProfiler: per-stage timelines for the sequential SimDriver's stage
// *sections* — traffic generation, scheduling, egress bookkeeping —
// built on TimeSeries.
//
// The model. Each stage owns a StageCounters block of relaxed atomics
// (items, sampled busy nanoseconds): the driver thread bumps them and the
// profiler's sampler thread reads them concurrently — TSan-clean by
// construction. Busy time comes from SampledTimer: 1-in-64 brackets are
// timed and charged x64, so the expected cost is two clock reads per 64
// packets, and a stage's busy fraction is its share of the measured
// time.
//
// Sampling. start_sampling() launches a wall-clock sampler thread that
// ticks an internal TimeSeries (budgeted, self-downsampling) over the
// registered probes — per-stage item/busy counters plus any counters the
// caller adds — and optionally rewrites a live status file
// (`# wfqs-live v1`, tmp+rename) that wfqs_top polls. Probes must be
// registered before start_sampling(); sampling must stop before anything
// a probe reads is destroyed.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "obs/timeseries.hpp"

namespace wfqs::obs {

class JsonWriter;

class HostProfiler {
public:
    enum class Stage : std::uint8_t { kGen, kSched, kEgress };
    static constexpr std::size_t kStageCount = 3;
    static const char* stage_name(Stage s);

    /// Per-stage tallies, sampled cross-thread. Updates are relaxed
    /// fetch_adds — the driver touches them per item block or per
    /// sampled bracket, never per item, so the RMW cost is noise.
    /// Readers see slightly stale but untorn values.
    class StageCounters {
    public:
        void add_items(std::uint64_t n) { bump(items_, n); }
        void add_busy_ns(std::uint64_t ns) { bump(busy_ns_, ns); }

        std::uint64_t items() const { return items_.load(std::memory_order_relaxed); }
        std::uint64_t busy_ns() const {
            return busy_ns_.load(std::memory_order_relaxed);
        }

    private:
        static void bump(std::atomic<std::uint64_t>& a, std::uint64_t n) {
            a.fetch_add(n, std::memory_order_relaxed);
        }
        std::atomic<std::uint64_t> items_{0};
        std::atomic<std::uint64_t> busy_ns_{0};  ///< SampledTimer credit
    };

    struct StageSummary {
        const char* name;
        std::uint64_t items;
        std::uint64_t busy_ns;
        double busy_fraction;  ///< share of total measured busy time
    };

    /// `budget`: TimeSeries window budget; `period`: sampler tick period.
    explicit HostProfiler(std::size_t budget = 256,
                          std::chrono::milliseconds period =
                              std::chrono::milliseconds(1));
    ~HostProfiler();

    HostProfiler(const HostProfiler&) = delete;
    HostProfiler& operator=(const HostProfiler&) = delete;

    // -- stage wiring (driver side) ---------------------------------------
    StageCounters& stage(Stage s) { return stages_[static_cast<std::size_t>(s)]; }
    const StageCounters& stage(Stage s) const {
        return stages_[static_cast<std::size_t>(s)];
    }

    /// Extra probes (e.g. a soak's throughput counters). Register before
    /// start_sampling(); what `fn` reads must outlive sampling.
    void add_counter(const std::string& name, std::function<std::uint64_t()> fn);

    // -- run lifecycle -----------------------------------------------------
    /// Mark the measured interval. start_sampling()/stop_sampling() call
    /// these implicitly; call directly when running without a sampler.
    void begin_run();
    void end_run();

    /// Launch the sampler thread: per-stage item/busy probes (registered
    /// on first start) plus everything added above, ticked every period.
    void start_sampling();
    void stop_sampling();
    bool sampling() const { return sampler_.joinable(); }

    /// Live status file for wfqs_top (written tmp+rename every tick
    /// while sampling). Set before start_sampling(); empty disables.
    void set_live_path(const std::string& path) { live_path_ = path; }

    /// Append one extra line to every live status write — e.g. the
    /// reshard soak's per-bank `bank <i> state <s> occ <n> ...` rows.
    /// The callback runs on the sampler thread, so whatever it reads
    /// must be safe to read concurrently; register before
    /// start_sampling().
    void add_live_line(std::function<std::string()> fn) {
        live_lines_.push_back(std::move(fn));
    }

    // -- results (read after end_run/stop_sampling) ------------------------
    double elapsed_seconds() const;
    std::vector<StageSummary> summary() const;
    /// Stage with the highest busy fraction among active stages — the
    /// section that dominates the sequential loop's time.
    Stage bottleneck() const;
    const TimeSeries& series() const { return series_; }

    /// {"elapsed_s":..,"bottleneck":"..","stages":[{...}],
    ///  "timeseries":{...}}
    void write_json(JsonWriter& w) const;
    /// Human-readable per-stage table plus the bottleneck verdict.
    std::string to_table() const;

private:
    void register_stage_probes();
    void sampler_loop();
    void write_live() const;

    StageCounters stages_[kStageCount];
    TimeSeries series_;
    std::chrono::milliseconds period_;
    std::string live_path_;
    std::vector<std::function<std::string()>> live_lines_;
    bool probes_registered_ = false;
    std::chrono::steady_clock::time_point t0_;
    std::chrono::steady_clock::time_point t1_;
    bool began_ = false, ended_ = false;
    std::thread sampler_;
    std::atomic<bool> stop_{false};
};

/// 1-in-kStride scoped-timer sampling against a StageCounters block:
/// every kStride-th bracket is timed (two steady_clock reads) and charged
/// x kStride as busy time, so a section wrapped in SampledTimer::Scope
/// costs ~2 clock reads / 64 calls. Null target disables entirely.
class SampledTimer {
public:
    static constexpr std::uint64_t kStride = 64;

    explicit SampledTimer(HostProfiler::StageCounters* target)
        : target_(target) {}

    class Scope {
    public:
        explicit Scope(SampledTimer& t) {
            if (t.target_ != nullptr && t.calls_++ % kStride == 0) {
                target_ = t.target_;
                start_ = std::chrono::steady_clock::now();
            }
        }
        ~Scope() {
            if (target_ != nullptr) {
                const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                    std::chrono::steady_clock::now() - start_)
                                    .count();
                target_->add_busy_ns(static_cast<std::uint64_t>(ns) * kStride);
            }
        }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        HostProfiler::StageCounters* target_ = nullptr;
        std::chrono::steady_clock::time_point start_;
    };

    Scope time() { return Scope(*this); }

private:
    friend class Scope;
    HostProfiler::StageCounters* target_;
    std::uint64_t calls_ = 0;
};

}  // namespace wfqs::obs
