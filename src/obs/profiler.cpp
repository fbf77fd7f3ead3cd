#include "obs/profiler.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
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
    WFQS_REQUIRE(period.count() > 0, "window period must be positive");
    // The cost of one clock read: the fastest of a few batches of
    // back-to-back reads. Every lap interval spans one read's overhead.
    constexpr int kReads = 64;
    std::int64_t best = std::numeric_limits<std::int64_t>::max();
    for (int batch = 0; batch < 4; ++batch) {
        const Clock::time_point a = Clock::now();
        for (int i = 0; i < kReads; ++i) (void)Clock::now();
        const Clock::time_point z = Clock::now();
        best = std::min<std::int64_t>(
            best, std::chrono::duration_cast<std::chrono::nanoseconds>(z - a).count() /
                      (kReads + 1));
    }
    clock_cost_ns_ = best;
}

void HostProfiler::lap(Stage s) {
    const Clock::time_point now = Clock::now();
    const std::int64_t ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - last_).count() -
        clock_cost_ns_;
    if (ns > 0) pending_ns_[static_cast<std::size_t>(s)] += static_cast<std::uint64_t>(ns);
    last_ = now;
    if (now >= next_close_) {
        close_window(now);
        last_ = Clock::now();  // the close's own cost is no stage's sample
    }
}

void HostProfiler::add_counter(const std::string& name,
                               std::function<std::uint64_t()> fn) {
    WFQS_REQUIRE(!began_, "register probes before begin_run()");
    series_.add_counter(name, std::move(fn));
}

void HostProfiler::begin_run() {
    WFQS_REQUIRE(!began_, "a HostProfiler times one run");
    began_ = true;
    for (std::size_t i = 0; i < kStageCount; ++i) {
        const std::string base =
            std::string("stage.") + stage_name(static_cast<Stage>(i));
        const StageCounters* c = &stages_[i];
        series_.add_counter(base + ".items", [c] { return c->items; });
        series_.add_counter(base + ".busy_ns", [c] { return c->busy_ns; });
    }
    t0_ = window_start_ = Clock::now();
    next_close_ = t0_ + period_;
}

void HostProfiler::end_run() {
    if (!began_ || ended_) return;
    ended_ = true;
    t1_ = Clock::now();
    close_window(t1_);
    next_close_ = Clock::time_point::max();
}

void HostProfiler::poll() {
    const Clock::time_point now = Clock::now();
    if (now >= next_close_) close_window(now);
}

void HostProfiler::close_window(Clock::time_point now) {
    // Split the window's wall time across the stages in proportion to
    // their sampled time. Shares round down, so Σ busy stays within the
    // wall time. A window with no samples carries its time forward.
    std::uint64_t sampled = 0;
    for (const std::uint64_t ns : pending_ns_) sampled += ns;
    if (sampled > 0) {
        const auto wall = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(now - window_start_)
                .count());
        for (std::size_t i = 0; i < kStageCount; ++i) {
            stages_[i].busy_ns += static_cast<std::uint64_t>(
                static_cast<unsigned __int128>(wall) * pending_ns_[i] / sampled);
            pending_ns_[i] = 0;
        }
        window_start_ = now;
    }
    series_.tick(std::chrono::duration<double>(now - t0_).count());
    next_close_ = now + period_;
    if (!live_path_.empty()) write_live();
}

std::chrono::nanoseconds HostProfiler::elapsed() const {
    if (!began_) return std::chrono::nanoseconds(0);
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
        (ended_ ? t1_ : Clock::now()) - t0_);
}

double HostProfiler::elapsed_seconds() const {
    return std::chrono::duration<double>(elapsed()).count();
}

std::vector<HostProfiler::StageSummary> HostProfiler::summary() const {
    std::uint64_t total_busy = 0;
    for (const auto& c : stages_) total_busy += c.busy_ns;
    std::vector<StageSummary> out;
    out.reserve(kStageCount);
    for (std::size_t i = 0; i < kStageCount; ++i) {
        const StageCounters& c = stages_[i];
        StageSummary s{};
        s.name = stage_name(static_cast<Stage>(i));
        s.items = c.items;
        s.busy_ns = c.busy_ns;
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
    std::uint64_t total_busy = 0;
    for (const auto& c : stages_) total_busy += c.busy_ns;
    WFQS_REQUIRE(total_busy <= static_cast<std::uint64_t>(elapsed().count()),
                 "stage busy time exceeds the run's elapsed time");
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
