#include "obs/bench_io.hpp"

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "common/assert.hpp"
#include "obs/json.hpp"
#include "obs/profiler.hpp"

namespace wfqs::obs {

namespace {

bool is_directory(const std::string& path) {
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

std::string expand_dir(const std::string& raw, const std::string& bench_name) {
    if (raw.empty()) return raw;
    if (raw.back() == '/' || is_directory(raw)) {
        const std::string sep = raw.back() == '/' ? "" : "/";
        return raw + sep + "BENCH_" + bench_name + ".json";
    }
    return raw;
}

}  // namespace

std::optional<std::string> bench_json_path(const std::string& bench_name,
                                           int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
        const char* a = argv[i];
        if (std::strcmp(a, "--json") == 0) {
            // argv parsing in a CLI: report and exit instead of an
            // uncaught throw aborting through std::terminate.
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: --json needs a path argument\n",
                             argv[0]);
                std::exit(2);
            }
            return expand_dir(argv[i + 1], bench_name);
        }
        if (std::strncmp(a, "--json=", 7) == 0)
            return expand_dir(a + 7, bench_name);
    }
    if (const char* env = std::getenv("WFQS_METRICS_JSON"); env && *env)
        return expand_dir(env, bench_name);
    return std::nullopt;
}

std::optional<std::uint64_t> bench_seed_override(int argc, char** argv) {
    const auto parse = [&](const char* text) -> std::uint64_t {
        char* end = nullptr;
        const unsigned long long v = std::strtoull(text, &end, 10);
        if (end == text || *end != '\0') {
            std::fprintf(stderr, "%s: seed must be an unsigned integer, got '%s'\n",
                         argv[0], text);
            std::exit(2);
        }
        return v;
    };
    for (int i = 1; i < argc; ++i) {
        const char* a = argv[i];
        if (std::strcmp(a, "--seed") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: --seed needs a value argument\n", argv[0]);
                std::exit(2);
            }
            return parse(argv[i + 1]);
        }
        if (std::strncmp(a, "--seed=", 7) == 0) return parse(a + 7);
    }
    if (const char* env = std::getenv("WFQS_SEED"); env && *env) return parse(env);
    return std::nullopt;
}

std::string bench_backend(int argc, char** argv) {
    const auto check = [&](const char* text) -> std::string {
        if (std::strcmp(text, "model") != 0 && std::strcmp(text, "ffs") != 0) {
            std::fprintf(stderr, "%s: --backend must be 'model' or 'ffs', got '%s'\n",
                         argv[0], text);
            std::exit(2);
        }
        return text;
    };
    for (int i = 1; i < argc; ++i) {
        const char* a = argv[i];
        if (std::strcmp(a, "--backend") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: --backend needs a value argument\n",
                             argv[0]);
                std::exit(2);
            }
            return check(argv[i + 1]);
        }
        if (std::strncmp(a, "--backend=", 10) == 0) return check(a + 10);
    }
    if (const char* env = std::getenv("WFQS_BACKEND"); env && *env)
        return check(env);
    return "model";
}

bool bench_timeseries(int argc, char** argv) {
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--timeseries") == 0) return true;
    if (const char* env = std::getenv("WFQS_TIMESERIES"); env && *env)
        return std::strcmp(env, "0") != 0;
    return false;
}

std::optional<std::string> bench_live_path(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
        const char* a = argv[i];
        if (std::strcmp(a, "--live") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: --live needs a path argument\n", argv[0]);
                std::exit(2);
            }
            return std::string(argv[i + 1]);
        }
        if (std::strncmp(a, "--live=", 7) == 0) return std::string(a + 7);
    }
    if (const char* env = std::getenv("WFQS_LIVE"); env && *env)
        return std::string(env);
    return std::nullopt;
}

void write_bench_json(const MetricsRegistry& registry,
                      const std::string& bench_name, const std::string& path,
                      std::optional<std::uint64_t> seed) {
    std::ofstream os(path);
    WFQS_REQUIRE(os.good(), "cannot open metrics output file '" + path + "'");
    JsonWriter w(os);
    w.begin_object();
    w.field("bench", bench_name);
    w.field("schema", std::uint64_t{1});
    if (seed) w.field("seed", *seed);
    w.key("metrics");
    registry.write_json(w);
    w.end_object();
    os << '\n';
}

void BenchReporter::finish() {
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                  host_start_)
            .count();
    registry_.gauge("host.elapsed_ms").set(elapsed_ms);
    // Machine context for the host.* gauges: speedup gates in perf_smoke
    // only apply when the recording machine had the cores to show one.
    registry_.gauge("host.hardware_concurrency")
        .set(static_cast<double>(std::thread::hardware_concurrency()));
    if (host_ops_ > 0) {
        const double ops_per_sec =
            elapsed_ms > 0.0 ? static_cast<double>(host_ops_) * 1000.0 / elapsed_ms
                             : 0.0;
        registry_.gauge("host.ops_per_sec").set(ops_per_sec);
        std::printf("[host] %llu ops in %.1f ms = %.0f ops/s\n",
                    static_cast<unsigned long long>(host_ops_), elapsed_ms,
                    ops_per_sec);
    }
    if (timeseries_ && series_.window_count() == 0) {
        // Whole-run fallback window: benches without a natural time axis
        // still export a uniformly-shaped timeseries section.
        if (series_.counter_names().empty())
            for (const auto& [cname, v] : registry_.counter_values()) {
                (void)v;
                const std::string probe = cname;
                const MetricsRegistry* reg = &registry_;
                series_.add_counter(
                    probe, [reg, probe] { return reg->counter_values()[probe]; });
            }
        series_.tick(elapsed_ms / 1000.0);
    }
    if (!path_) return;
    try {
        std::ofstream os(*path_);
        WFQS_REQUIRE(os.good(), "cannot open metrics output file '" + *path_ + "'");
        JsonWriter w(os);
        w.begin_object();
        w.field("bench", name_);
        w.field("schema", std::uint64_t{1});
        if (seed_) w.field("seed", *seed_);
        if (!backend_.empty()) w.field("backend", backend_);
        w.key("metrics");
        registry_.write_json(w);
        if (timeseries_) {
            w.key("timeseries");
            series_.write_json(w);
            if (profiler_) {
                w.key("host_profile");
                profiler_->write_json(w);
            }
        }
        w.end_object();
        os << '\n';
    } catch (const std::exception& e) {
        std::fprintf(stderr, "[metrics] export failed: %s\n", e.what());
        std::exit(2);
    }
    std::printf("[metrics] wrote %s (%zu metrics)\n", path_->c_str(),
                registry_.size());
}

}  // namespace wfqs::obs
