// TimeSeries: the time dimension for the metrics layer.
//
// The registry (metrics.hpp) exports one terminal snapshot per run; this
// recorder turns any of its counter/gauge/histogram views into *windowed*
// series so a run can answer "when" and "where", not just "how much" —
// the continuous-observability substrate the host driver profiler, the
// `--timeseries` bench sections, and `wfqs_top` are built on.
//
// Sampling model. The owner calls tick(t) on whatever axis it cares
// about — hw clock cycles (fault_soak ticks every N verified ops) or
// host wall-clock seconds (the profiler, at each window it closes). Every
// stride()-th tick closes a window: each probe is sampled once and the
// window stores
//   * counters   — the delta since the previous window (rate-friendly);
//   * gauges     — the value at the window close;
//   * histograms — a HistWindow: bin-count/count/sum/nan deltas, enough
//     for windowed mean and ±1-bin quantiles, and mergeable.
//
// Fixed sample budget. Memory never exceeds `budget` windows: when a
// close would overflow, adjacent windows merge pairwise (counters add,
// gauges average, histograms merge) and the stride doubles, so an
// arbitrarily long run decays smoothly to half-resolution instead of
// truncating. Probes are sampled only at window close, so a tick that
// doesn't close a window costs one branch.
//
// Threading: none. tick() and the probe callables run on the caller's
// thread — the single-writer rule of metrics.hpp applies unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace wfqs::obs {

class JsonWriter;

/// One closed window of a histogram probe: pure deltas, so windows merge
/// by addition exactly like the cumulative CycleHistogram lanes they are
/// diffed from (NaN rejects included; integer-lane overflow spills in the
/// source histogram keep count/sum consistent here because both are read
/// through the folded stats() view).
struct HistWindow {
    std::uint64_t count = 0;
    double sum = 0.0;
    std::uint64_t nan_rejects = 0;
    std::vector<std::uint64_t> bins;

    void merge(const HistWindow& other);
    double mean() const {
        return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
    /// Quantile from the bins (upper edge of the covering bin over
    /// [lo, hi); good to ±1 bin width, like CycleHistogram).
    double quantile(double q, double lo, double hi) const;
};

class TimeSeries {
public:
    /// `budget`: maximum retained windows; even, at least 2.
    explicit TimeSeries(std::size_t budget = 256);

    // -- probes (register before the first tick) --------------------------
    /// `fn` returns a cumulative count; windows store the per-window delta.
    void add_counter(const std::string& name, std::function<std::uint64_t()> fn);
    /// `fn` returns a point-in-time value; windows store the close sample.
    void add_gauge(const std::string& name, std::function<double()> fn);
    /// Non-owning view; `h` must outlive the last tick. Windows store the
    /// per-window HistWindow delta.
    void add_histogram(const std::string& name, const CycleHistogram* h);

    // -- recording --------------------------------------------------------
    /// Advance the time axis to `t` (non-decreasing; any unit). Closes a
    /// window every stride()-th call.
    void tick(double t);

    // -- inspection -------------------------------------------------------
    std::size_t budget() const { return budget_; }
    std::size_t stride() const { return stride_; }
    std::size_t window_count() const { return t_.size(); }
    const std::vector<double>& times() const { return t_; }
    std::vector<std::string> counter_names() const;
    std::vector<std::string> gauge_names() const;
    std::vector<std::string> histogram_names() const;
    const std::vector<std::uint64_t>& counter_series(const std::string& name) const;
    const std::vector<double>& gauge_series(const std::string& name) const;
    const std::vector<HistWindow>& histogram_series(const std::string& name) const;

    /// {"budget":..,"stride":..,"t":[..],"counters":{..},"gauges":{..},
    ///  "histograms":{name:{"lo","hi","count":[..],"mean":[..],
    ///  "p50":[..],"p99":[..],"nan_rejects":[..]}}}
    void write_json(JsonWriter& w) const;

private:
    struct CounterSeries {
        std::string name;
        std::function<std::uint64_t()> fn;
        std::uint64_t last = 0;
        std::vector<std::uint64_t> v;
    };
    struct GaugeSeries {
        std::string name;
        std::function<double()> fn;
        std::vector<double> v;
    };
    struct HistSeries {
        std::string name;
        const CycleHistogram* h;
        double lo = 0.0, hi = 0.0;
        std::uint64_t last_count = 0;
        double last_sum = 0.0;
        std::uint64_t last_nan = 0;
        std::vector<std::uint64_t> last_bins;
        std::vector<HistWindow> v;
    };

    void close_window(double t);
    void downsample();

    std::size_t budget_;
    std::size_t stride_ = 1;
    std::size_t pending_ = 0;
    double last_t_ = 0.0;
    bool ticked_ = false;
    std::vector<double> t_;  ///< window close times
    std::vector<CounterSeries> counters_;
    std::vector<GaugeSeries> gauges_;
    std::vector<HistSeries> hists_;
};

}  // namespace wfqs::obs
