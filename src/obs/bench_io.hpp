// Machine-readable export for the bench binaries.
//
// Every bench keeps printing its human-readable tables, and additionally
// accepts
//
//     <bench> --json <path>        (also --json=<path>)
//     WFQS_METRICS_JSON=<path>     (env; a directory — trailing '/' or an
//                                   existing dir — expands to
//                                   <dir>/BENCH_<name>.json)
//
// to write its MetricsRegistry snapshot as JSON. The emitted document is
//
//     {"bench": <name>, "schema": 1, "metrics": {counters, gauges,
//      histograms}}
//
// with sorted metric names, so committed BENCH_*.json artifacts diff
// cleanly between runs and feed the perf trajectory.
// Benches additionally accept
//
//     <bench> --seed <n>           (also --seed=<n>)
//     WFQS_SEED=<n>                (env; the flag wins)
//
// to shift every RNG seeding site in the bench while keeping distinct
// sites distinct (see BenchReporter::seed). The resolved seed of the
// first site is exported as a top-level "seed" field so every committed
// artifact records how to reproduce it.
// Telemetry riders (all benches):
//
//     <bench> --timeseries         (also WFQS_TIMESERIES=1)
//     <bench> --live <path>        (also --live=<path>, WFQS_LIVE=<path>)
//
// --timeseries adds a windowed "timeseries" section (and, when the bench
// attached a HostProfiler, a "host_profile" section) to the JSON export.
// Benches that tick the reporter's TimeSeries get real windows; benches
// that never tick still export one whole-run window, so the section's
// shape is uniform across the suite. --live names a status file a
// profiler-attached bench rewrites at each profiler window and at the
// end of the run, for `wfqs_top`.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"

namespace wfqs::obs {

class HostProfiler;

/// Resolve the export path from argv/env as described above; nullopt
/// means "no export requested".
std::optional<std::string> bench_json_path(const std::string& bench_name,
                                           int argc, char** argv);

/// Resolve the seed override from `--seed <n>` / `--seed=<n>` / WFQS_SEED;
/// nullopt means "use each site's default".
std::optional<std::uint64_t> bench_seed_override(int argc, char** argv);

/// Resolve the sorter backend from `--backend model|ffs` / `--backend=` /
/// WFQS_BACKEND (flag wins). Returns the backend *name*; "model" when
/// nothing is requested; anything else is rejected. bench_io stays
/// layering-clean (obs does not include baselines) — benches map the
/// name through baselines::backend_from_name.
std::string bench_backend(int argc, char** argv);

/// `--timeseries` / WFQS_TIMESERIES=1: include windowed telemetry
/// sections in the JSON export.
bool bench_timeseries(int argc, char** argv);

/// `--live <path>` / `--live=<path>` / WFQS_LIVE: live status file for
/// wfqs_top; nullopt means "no live view requested".
std::optional<std::string> bench_live_path(int argc, char** argv);

/// Write the snapshot document to `path`. A resolved `seed` is emitted as
/// a top-level "seed" field (omitted when the bench has no RNG).
void write_bench_json(const MetricsRegistry& registry,
                      const std::string& bench_name, const std::string& path,
                      std::optional<std::uint64_t> seed = std::nullopt);

/// The one-liner benches use: registry + "did the run ask for JSON?".
/// finish() exports if a path was requested and reports where.
class BenchReporter {
public:
    BenchReporter(std::string bench_name, int argc, char** argv)
        : name_(std::move(bench_name)),
          path_(bench_json_path(name_, argc, argv)),
          seed_override_(bench_seed_override(argc, argv)),
          timeseries_(bench_timeseries(argc, argv)),
          live_path_(bench_live_path(argc, argv)) {}

    MetricsRegistry& registry() { return registry_; }
    const std::optional<std::string>& path() const { return path_; }
    bool timeseries_enabled() const { return timeseries_; }
    const std::optional<std::string>& live_path() const { return live_path_; }

    /// Reporter-owned windowed recorder. Benches with a natural time axis
    /// register probes and tick it during the run; finish() exports it
    /// under "timeseries" when --timeseries was passed. A bench that
    /// never ticks still gets one whole-run window (every registry
    /// counter as a probe) so the section is uniformly present.
    TimeSeries& series() { return series_; }

    /// Include this profiler's per-stage summary and timeline in the
    /// export (under "host_profile"); must outlive finish().
    void set_profiler(const HostProfiler* profiler) { profiler_ = profiler; }

    /// Resolve the seed for one RNG seeding site. Without an override the
    /// site keeps its historical default (committed artifacts stay
    /// byte-identical); with `--seed N` the site becomes `N + site_default`
    /// so a bench with several sites still seeds them distinctly. The
    /// exported "seed" field records the override (what --seed must be
    /// passed to reproduce the run), or the first site default when the
    /// run used the defaults.
    std::uint64_t seed(std::uint64_t site_default) {
        if (!seed_) seed_ = seed_override_ ? *seed_override_ : site_default;
        return seed_override_ ? *seed_override_ + site_default : site_default;
    }

    /// Count host-side benchmark operations toward `host.ops_per_sec`.
    /// Call once (or accumulate over phases) before finish().
    void record_host_ops(std::uint64_t ops) { host_ops_ += ops; }

    /// Record which sorter backend the run used; exported as a top-level
    /// "backend" string in the JSON document so every committed artifact
    /// says what produced its host-side numbers.
    void record_backend(std::string backend) { backend_ = std::move(backend); }

    /// Export (if requested) and print a one-line note to stdout. Also
    /// stamps host wall-clock gauges into the registry first —
    /// `host.elapsed_ms` since construction and, when record_host_ops()
    /// was called, `host.ops_per_sec`. These measure the *host* simulation
    /// speed (they vary machine to machine); trajectory tooling must
    /// compare modeled metrics only and treat host.* as informational.
    void finish();

private:
    std::string name_;
    std::optional<std::string> path_;
    std::optional<std::uint64_t> seed_override_;
    std::optional<std::uint64_t> seed_;
    bool timeseries_ = false;
    std::optional<std::string> live_path_;
    std::string backend_;
    const HostProfiler* profiler_ = nullptr;
    std::chrono::steady_clock::time_point host_start_ =
        std::chrono::steady_clock::now();
    std::uint64_t host_ops_ = 0;
    MetricsRegistry registry_;
    TimeSeries series_;
};

}  // namespace wfqs::obs
