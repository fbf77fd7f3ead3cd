#include "obs/profiler.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/assert.hpp"
#include "common/table.hpp"
#include "obs/json.hpp"

namespace wfqs::obs {

const char* HostProfiler::stage_name(Stage s) {
    switch (s) {
        case Stage::kGen: return "gen";
        case Stage::kSched: return "sched";
        case Stage::kEgress: return "egress";
    }
    return "unknown";
}

HostProfiler::HostProfiler(std::size_t budget, std::chrono::milliseconds period)
    : series_(budget), period_(period) {
    WFQS_REQUIRE(period.count() > 0, "sampler period must be positive");
}

HostProfiler::~HostProfiler() {
    if (sampler_.joinable()) stop_sampling();
}

void HostProfiler::add_counter(const std::string& name,
                               std::function<std::uint64_t()> fn) {
    WFQS_REQUIRE(!sampling(), "register probes before start_sampling()");
    series_.add_counter(name, std::move(fn));
}

void HostProfiler::begin_run() {
    if (began_) return;
    began_ = true;
    t0_ = std::chrono::steady_clock::now();
}

void HostProfiler::end_run() {
    if (!began_ || ended_) return;
    ended_ = true;
    t1_ = std::chrono::steady_clock::now();
}

void HostProfiler::register_stage_probes() {
    if (probes_registered_) return;
    probes_registered_ = true;
    for (std::size_t i = 0; i < kStageCount; ++i) {
        const Stage s = static_cast<Stage>(i);
        const std::string base = std::string("stage.") + stage_name(s);
        const StageCounters* c = &stages_[i];
        series_.add_counter(base + ".items",
                            [c] { return c->items(); });
        series_.add_counter(base + ".busy_ns",
                            [c] { return c->busy_ns(); });
    }
}

void HostProfiler::start_sampling() {
    WFQS_REQUIRE(!sampling(), "sampler already running");
    register_stage_probes();
    begin_run();
    stop_.store(false, std::memory_order_relaxed);
    sampler_ = std::thread([this] { sampler_loop(); });
}

void HostProfiler::stop_sampling() {
    if (!sampler_.joinable()) return;
    stop_.store(true, std::memory_order_relaxed);
    sampler_.join();
    end_run();
}

void HostProfiler::sampler_loop() {
    while (!stop_.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(period_);
        const double t = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0_)
                             .count();
        series_.tick(t);
        if (!live_path_.empty()) write_live();
    }
}

double HostProfiler::elapsed_seconds() const {
    if (!began_) return 0.0;
    const auto end = ended_ ? t1_ : std::chrono::steady_clock::now();
    return std::chrono::duration<double>(end - t0_).count();
}

std::vector<HostProfiler::StageSummary> HostProfiler::summary() const {
    std::uint64_t total_busy = 0;
    for (const auto& c : stages_) total_busy += c.busy_ns();
    std::vector<StageSummary> out;
    out.reserve(kStageCount);
    for (std::size_t i = 0; i < kStageCount; ++i) {
        const StageCounters& c = stages_[i];
        StageSummary s{};
        s.name = stage_name(static_cast<Stage>(i));
        s.items = c.items();
        s.busy_ns = c.busy_ns();
        if (total_busy > 0)
            s.busy_fraction =
                static_cast<double>(s.busy_ns) / static_cast<double>(total_busy);
        out.push_back(s);
    }
    return out;
}

HostProfiler::Stage HostProfiler::bottleneck() const {
    const std::vector<StageSummary> s = summary();
    std::size_t best = static_cast<std::size_t>(Stage::kSched);
    double best_frac = -1.0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i].items == 0 && s[i].busy_ns == 0) continue;
        if (s[i].busy_fraction > best_frac) {
            best_frac = s[i].busy_fraction;
            best = i;
        }
    }
    return static_cast<Stage>(best);
}

void HostProfiler::write_json(JsonWriter& w) const {
    w.begin_object();
    w.field("elapsed_s", elapsed_seconds());
    w.field("bottleneck", stage_name(bottleneck()));
    w.key("stages").begin_array();
    for (const StageSummary& s : summary()) {
        w.begin_object();
        w.field("name", s.name);
        w.field("items", s.items);
        w.field("busy_ns", s.busy_ns);
        w.field("busy_fraction", s.busy_fraction);
        w.end_object();
    }
    w.end_array();
    w.key("timeseries");
    series_.write_json(w);
    w.end_object();
}

std::string HostProfiler::to_table() const {
    TextTable t({"stage", "items", "busy_ms", "busy_frac"});
    for (const StageSummary& s : summary()) {
        if (s.items == 0 && s.busy_ns == 0) continue;
        t.add_row({s.name, TextTable::num(s.items),
                   TextTable::num(static_cast<double>(s.busy_ns) / 1e6, 3),
                   TextTable::num(s.busy_fraction, 4)});
    }
    std::ostringstream os;
    os << t.render();
    os << "bottleneck: " << stage_name(bottleneck()) << "\n";
    return os.str();
}

void HostProfiler::write_live() const {
    const std::string tmp = live_path_ + ".tmp";
    {
        std::ofstream out(tmp);
        if (!out) return;  // live view is best-effort
        out << "# wfqs-live v1\n";
        out << "elapsed_s " << elapsed_seconds() << "\n";
        for (const StageSummary& s : summary())
            out << "stage " << s.name << " items " << s.items << " busy_ns "
                << s.busy_ns << " busy " << s.busy_fraction << "\n";
        for (const auto& line : live_lines_) out << line() << "\n";
        // Sparkline tails: the last few closed windows of every probe
        // (all counters: per-window deltas).
        constexpr std::size_t kTail = 32;
        const std::size_t n = series_.window_count();
        const std::size_t from = n > kTail ? n - kTail : 0;
        if (n != 0) out << "window_t " << series_.times()[n - 1] << "\n";
        for (const std::string& name : series_.counter_names()) {
            const auto& v = series_.counter_series(name);
            out << "series " << name;
            for (std::size_t i = from; i < n; ++i) out << " " << v[i];
            out << "\n";
        }
    }
    std::rename(tmp.c_str(), live_path_.c_str());
}

}  // namespace wfqs::obs
