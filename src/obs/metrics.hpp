// MetricsRegistry: one named place for every counter, gauge, and
// cycle-latency histogram the simulated circuit produces, with uniform
// JSON and plain-table snapshot export.
//
// Two registration styles, matching how the codebase already keeps its
// numbers:
//
//   * owned metrics — `registry.counter("drops").inc()` — for code that
//     has no tally of its own (benches, examples);
//   * views — `register_counter_fn`, `register_histogram` — read-through
//     adapters over tallies a component already maintains (SorterStats
//     fields, SramStats, scheduler counters). The component stays the
//     single writer; the registry samples at snapshot time, so attaching
//     a registry adds zero cost to the hot path.
//
// Snapshots sort metric names so exported JSON diffs cleanly between
// runs — the property the BENCH_*.json perf-trajectory artifacts rely on.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hpp"

namespace wfqs::obs {

class JsonWriter;

/// Monotonic event count.
class Counter {
public:
    void inc(std::uint64_t n = 1) { value_ += n; }
    std::uint64_t value() const { return value_; }

private:
    std::uint64_t value_ = 0;
};

/// Point-in-time scalar.
class Gauge {
public:
    void set(double v) { value_ = v; }
    double value() const { return value_; }

private:
    double value_ = 0.0;
};

/// Latency distribution in clock cycles: exact streaming moments
/// (RunningStats) plus fixed bins (Histogram) for approximate quantiles.
/// The default geometry — one bin per cycle over [0, 64) — makes the
/// per-cycle distribution of the paper's 4-cycle pipeline stages exact.
///
/// Recording is cheap by default: hot paths that produce integer cycle
/// counts use record_cycles(), which (for unit-width bins starting at 0 —
/// every cycle histogram in the tree) is a handful of integer adds and
/// one direct bin increment — no NaN test, no FP divide, no clamping
/// arithmetic. The moments it tracks are exact for integer inputs;
/// stats() folds both lanes into one summary.
class CycleHistogram {
public:
    CycleHistogram(double lo = 0.0, double hi = 64.0, std::size_t bins = 64)
        : hist_(lo, hi, bins),
          unit_bins_(lo == 0.0 && hi == static_cast<double>(bins)) {}

    void record(double v) {
        if (std::isnan(v)) {
            hist_.add(v);  // lands in the histogram's NaN-reject counter
            return;
        }
        stats_.add(v);
        hist_.add(v);
    }

    /// Integer fast lane (hot paths). Falls back to record() when the bin
    /// geometry is not one-bin-per-cycle, when the value is too large for
    /// its square to stay exact (>= 2^31), or when either integer
    /// accumulator would overflow — so the uint64 moments never wrap.
    void record_cycles(std::uint64_t cycles) {
        constexpr std::uint64_t kSquareSafe = std::uint64_t{1} << 31;
        constexpr std::uint64_t kU64Max = ~std::uint64_t{0};
        if (!unit_bins_ || cycles >= kSquareSafe ||
            isum_ > kU64Max - cycles ||
            isumsq_ > kU64Max - cycles * cycles) {
            record(static_cast<double>(cycles));
            return;
        }
        ++icount_;
        isum_ += cycles;
        isumsq_ += cycles * cycles;
        imin_ = cycles < imin_ ? cycles : imin_;
        imax_ = cycles > imax_ ? cycles : imax_;
        const std::size_t last = hist_.bin_count() - 1;
        hist_.bump(cycles < last ? static_cast<std::size_t>(cycles) : last);
    }

    /// Combined summary over both recording lanes. Exact for the integer
    /// lane (moments accumulate in uint64), Welford for the double lane.
    RunningStats stats() const;
    const Histogram& bins() const { return hist_; }

    /// Quantile estimated from the bins (upper edge of the covering bin,
    /// clamped to the exact max). Good to ±1 bin width.
    double approx_quantile(double q) const;

    void write_json(JsonWriter& w) const;

private:
    RunningStats stats_;
    Histogram hist_;
    bool unit_bins_;
    // Integer lane accumulators (record_cycles).
    std::uint64_t icount_ = 0;
    std::uint64_t isum_ = 0;
    std::uint64_t isumsq_ = 0;
    std::uint64_t imin_ = ~std::uint64_t{0};
    std::uint64_t imax_ = 0;
};

class MetricsRegistry {
public:
    // -- owned metrics (find-or-create by name) ---------------------------
    Counter& counter(const std::string& name);
    Gauge& gauge(const std::string& name);
    CycleHistogram& histogram(const std::string& name, double lo = 0.0,
                              double hi = 64.0, std::size_t bins = 64);

    // -- views over component-owned tallies -------------------------------
    // Callables are sampled at snapshot time, so the component they read
    // must outlive the last snapshot taken from this registry.
    void register_counter_fn(const std::string& name,
                             std::function<std::uint64_t()> fn);
    void register_gauge_fn(const std::string& name, std::function<double()> fn);
    /// Non-owning histogram view; `h` must outlive the last snapshot.
    void register_histogram(const std::string& name, const CycleHistogram* h);

    // -- snapshot export ---------------------------------------------------
    /// Flat sorted name → value maps, resolving views.
    std::map<std::string, std::uint64_t> counter_values() const;
    std::map<std::string, double> gauge_values() const;
    std::map<std::string, const CycleHistogram*> histograms() const;

    bool contains(const std::string& name) const;
    std::size_t size() const;

    /// {"counters":{...},"gauges":{...},"histograms":{...}}
    void write_json(JsonWriter& w) const;
    std::string to_json() const;
    /// Human-readable snapshot (TextTable): one row per metric.
    std::string to_table() const;

private:
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<CycleHistogram>> owned_histograms_;
    std::map<std::string, std::function<std::uint64_t()>> counter_fns_;
    std::map<std::string, std::function<double()>> gauge_fns_;
    std::map<std::string, const CycleHistogram*> histogram_views_;
};

}  // namespace wfqs::obs
