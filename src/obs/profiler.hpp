// HostProfiler: per-stage timelines for the sequential SimDriver's stage
// *sections* — traffic generation, scheduling, egress bookkeeping —
// built on TimeSeries. Everything runs on the thread that does the work.
//
// The model. Each stage owns a StageCounters block (items, busy
// nanoseconds). The driver counts every item, and on 1 loop iteration in
// kStride it reads the clock once at each stage boundary (lap()), so the
// stages of a sampled iteration sum to that iteration's wall time. Each
// interval is net of a clock-read cost calibrated at construction.
//
// Windows. When a lap's timestamp passes the next period (or poll() is
// called past it), the profiler closes a window: the wall time since the
// previous close is split across the stages in proportion to their
// sampled time in the window, the internal TimeSeries ticks (budgeted,
// self-downsampling) over the per-stage item/busy counters plus any the
// caller adds, and the live status file (`# wfqs-live v1`, tmp+rename)
// that wfqs_top polls is rewritten. end_run() closes the last partial
// window, so Σ stage busy never exceeds the run's elapsed time —
// write_json() checks it — and cumulative busy only grows.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/timeseries.hpp"

namespace wfqs::obs {

class JsonWriter;

class HostProfiler {
public:
    enum class Stage : std::uint8_t { kGen, kSched, kEgress };
    static constexpr std::size_t kStageCount = 3;
    static const char* stage_name(Stage s);

    /// One loop iteration in kStride is timed.
    static constexpr std::uint64_t kStride = 64;

    struct StageCounters {
        std::uint64_t items = 0;
        std::uint64_t busy_ns = 0;  ///< this stage's share of the closed windows
    };

    struct StageSummary {
        const char* name;
        std::uint64_t items;
        std::uint64_t busy_ns;
        double busy_fraction;  ///< share of total busy time
    };

    /// `budget`: TimeSeries window budget; `period`: window period.
    explicit HostProfiler(std::size_t budget = 256,
                          std::chrono::milliseconds period =
                              std::chrono::milliseconds(1));

    HostProfiler(const HostProfiler&) = delete;
    HostProfiler& operator=(const HostProfiler&) = delete;

    // -- stage wiring (driver side) ---------------------------------------
    StageCounters& stage(Stage s) { return stages_[static_cast<std::size_t>(s)]; }
    const StageCounters& stage(Stage s) const {
        return stages_[static_cast<std::size_t>(s)];
    }
    void count(Stage s) { ++stage(s).items; }

    /// Start a loop iteration; true (after reading the clock) on the one
    /// in kStride that is timed.
    bool begin_iteration() {
        if (iterations_++ % kStride != 0) return false;
        last_ = Clock::now();
        return true;
    }
    /// On a timed iteration: charge the time since the previous clock read
    /// to `s`, closing a window when the period has passed. Out of line:
    /// it runs on 1 iteration in kStride and would crowd the driver loop.
    void lap(Stage s);

    /// Extra probes (e.g. a soak's throughput counters). Register before
    /// begin_run(); what `fn` reads must outlive the run.
    void add_counter(const std::string& name, std::function<std::uint64_t()> fn);

    // -- run lifecycle -----------------------------------------------------
    /// Mark the measured interval; SimDriver::run calls both. A profiler
    /// times one run.
    void begin_run();
    void end_run();
    /// Close a window if the period has passed — for loops that do not
    /// lap(), such as a soak calling it at its own tick points.
    void poll();

    /// Live status file for wfqs_top, rewritten at every window close.
    /// Set before begin_run(); empty disables.
    void set_live_path(const std::string& path) { live_path_ = path; }

    /// Append one extra line to every live status write — e.g. the
    /// reshard soak's per-bank `bank <i> state <s> occ <n> ...` rows.
    void add_live_line(std::function<std::string()> fn) {
        live_lines_.push_back(std::move(fn));
    }

    // -- results (read after end_run) --------------------------------------
    double elapsed_seconds() const;
    std::vector<StageSummary> summary() const;
    /// Stage with the highest busy fraction among active stages — the
    /// section that dominates the sequential loop's time.
    Stage bottleneck() const;
    const TimeSeries& series() const { return series_; }

    /// {"elapsed_s":..,"bottleneck":"..","stages":[{...}],
    ///  "timeseries":{...}}. Throws when Σ stage busy exceeds elapsed.
    void write_json(JsonWriter& w) const;
    /// Human-readable per-stage table plus the bottleneck verdict.
    std::string to_table() const;

private:
    using Clock = std::chrono::steady_clock;

    std::chrono::nanoseconds elapsed() const;
    void close_window(Clock::time_point now);
    void write_live() const;

    StageCounters stages_[kStageCount];
    std::uint64_t pending_ns_[kStageCount] = {};  ///< sampled, open window
    std::uint64_t iterations_ = 0;
    std::int64_t clock_cost_ns_ = 0;
    Clock::time_point last_;        ///< previous clock read of a timed iteration
    Clock::time_point next_close_ = Clock::time_point::max();
    Clock::time_point window_start_;
    TimeSeries series_;
    Clock::duration period_;
    std::string live_path_;
    std::vector<std::function<std::string()>> live_lines_;
    Clock::time_point t0_;
    Clock::time_point t1_;
    bool began_ = false, ended_ = false;
};

}  // namespace wfqs::obs
