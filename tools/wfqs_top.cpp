// wfqs_top: terminal dashboard for the host driver telemetry.
//
// Two modes, one binary:
//
//   wfqs_top STATUS_FILE [--interval MS] [--once]
//       Attach to a live bench. A profiler-attached bench run with
//       `--live STATUS_FILE` rewrites the file (tmp+rename) at every
//       profiler window and at the end of the run, in the
//       `# wfqs-live v1` format; wfqs_top polls it
//       and redraws a per-stage table (items, busy fraction with a bar)
//       plus ASCII sparklines of the most recent timeline
//       windows. --once renders a single frame without touching the
//       terminal modes — that is what tests and scripts use.
//
//   wfqs_top --replay DUMP.ops
//       Render a flight-recorder dump (from fault_soak --flight,
//       wfqs_fuzz --flight, or a crash hook) as an annotated timeline:
//       the dump's reason header, an event-kind census, collapsed runs
//       of replayable ops, and every fault/scrub/reshard/divergence
//       annotation in ring order. The same file replays through
//       `wfqs_fuzz --replay` — this view is the human half.
//
// Exit code: 0 = rendered, 1 = stale/never-appearing live file,
// 2 = usage or parse error.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/table.hpp"

namespace {

using wfqs::TextTable;

// ------------------------------------------------------------- live mode

struct StageRow {
    std::string name;
    std::uint64_t items = 0;
    std::uint64_t busy_ns = 0;
    double busy = 0.0;
};

/// Per-bank row of a sharded/reshard bench (`bank <i> state <s> occ <n>
/// wait <cycles> ops <n>` live lines).
struct BankRow {
    unsigned index = 0;
    std::string state;
    std::uint64_t occ = 0;
    std::uint64_t wait = 0;
    std::uint64_t ops = 0;
};

struct LiveStatus {
    double elapsed_s = 0.0;
    double window_t = 0.0;
    std::vector<StageRow> stages;
    std::vector<BankRow> banks;
    std::vector<std::pair<std::string, std::vector<double>>> series;
};

std::optional<LiveStatus> parse_live(const std::string& path) {
    std::ifstream in(path);
    if (!in) return std::nullopt;
    std::string line;
    if (!std::getline(in, line) || line != "# wfqs-live v1") return std::nullopt;
    LiveStatus st;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string key;
        if (!(ls >> key)) continue;
        if (key == "elapsed_s") {
            ls >> st.elapsed_s;
        } else if (key == "window_t") {
            ls >> st.window_t;
        } else if (key == "stage") {
            StageRow row;
            std::string k;
            ls >> row.name;
            while (ls >> k) {
                if (k == "items") ls >> row.items;
                else if (k == "busy_ns") ls >> row.busy_ns;
                else if (k == "busy") ls >> row.busy;
            }
            st.stages.push_back(std::move(row));
        } else if (key == "bank") {
            BankRow row;
            std::string k;
            ls >> row.index;
            while (ls >> k) {
                if (k == "state") ls >> row.state;
                else if (k == "occ") ls >> row.occ;
                else if (k == "wait") ls >> row.wait;
                else if (k == "ops") ls >> row.ops;
            }
            st.banks.push_back(std::move(row));
        } else if (key == "series") {
            std::string name;
            ls >> name;
            std::vector<double> v;
            double x;
            while (ls >> x) v.push_back(x);
            st.series.emplace_back(std::move(name), std::move(v));
        }
    }
    return st;
}

/// Scale a window tail onto ' .:-=+*#%@' (min..max of the tail itself).
std::string sparkline(const std::vector<double>& v) {
    static const char kRamp[] = " .:-=+*#%@";
    constexpr std::size_t kLevels = sizeof(kRamp) - 2;  // index 0..9
    if (v.empty()) return "";
    double lo = v[0], hi = v[0];
    for (const double x : v) {
        lo = x < lo ? x : lo;
        hi = x > hi ? x : hi;
    }
    std::string out;
    out.reserve(v.size());
    for (const double x : v) {
        const double frac = hi > lo ? (x - lo) / (hi - lo) : (hi > 0 ? 1.0 : 0.0);
        out += kRamp[static_cast<std::size_t>(frac * kLevels + 0.5)];
    }
    return out;
}

std::string busy_bar(double frac, std::size_t width = 20) {
    if (frac < 0) frac = 0;
    if (frac > 1) frac = 1;
    const std::size_t fill = static_cast<std::size_t>(frac * width + 0.5);
    return std::string(fill, '#') + std::string(width - fill, '-');
}

void render_live(const LiveStatus& st, const std::string& path, bool stale) {
    std::printf("wfqs_top — %s  (elapsed %.2fs%s)\n", path.c_str(), st.elapsed_s,
                stale ? ", STALE" : "");
    TextTable t({"stage", "items", "busy_ms", "busy", ""});
    const StageRow* hot = nullptr;
    for (const StageRow& s : st.stages) {
        if (s.items == 0 && s.busy_ns == 0) continue;
        if (hot == nullptr || s.busy > hot->busy) hot = &s;
        t.add_row({s.name, TextTable::num(s.items),
                   TextTable::num(static_cast<double>(s.busy_ns) / 1e6, 2),
                   TextTable::num(s.busy, 3), busy_bar(s.busy)});
    }
    std::printf("%s", t.render().c_str());
    if (hot != nullptr)
        std::printf("bottleneck: %s (largest share of the measured time)\n",
                    hot->name.c_str());
    if (!st.banks.empty()) {
        std::uint64_t max_occ = 1;
        for (const BankRow& b : st.banks)
            max_occ = b.occ > max_occ ? b.occ : max_occ;
        std::printf("\nbanks:\n");
        TextTable bt({"bank", "state", "occ", "wait_cyc", "ops", ""});
        for (const BankRow& b : st.banks)
            bt.add_row({TextTable::num(static_cast<std::uint64_t>(b.index)),
                        b.state, TextTable::num(b.occ), TextTable::num(b.wait),
                        TextTable::num(b.ops),
                        busy_bar(static_cast<double>(b.occ) /
                                 static_cast<double>(max_occ))});
        std::printf("%s", bt.render().c_str());
    }
    if (!st.series.empty()) {
        std::printf("\nlast windows (through t=%.2fs):\n", st.window_t);
        std::size_t width = 0;
        for (const auto& [name, v] : st.series)
            width = name.size() > width ? name.size() : width;
        for (const auto& [name, v] : st.series)
            std::printf("  %-*s |%s|\n", static_cast<int>(width), name.c_str(),
                        sparkline(v).c_str());
    }
}

int run_live(const std::string& path, int interval_ms, bool once) {
    double last_elapsed = -1.0;
    int unchanged = 0;
    for (int frame = 0;; ++frame) {
        const auto st = parse_live(path);
        if (!st) {
            if (once) {
                std::fprintf(stderr, "wfqs_top: cannot read live status '%s'\n",
                             path.c_str());
                return 1;
            }
            std::printf("\033[2J\033[Hwfqs_top — waiting for %s ...\n",
                        path.c_str());
        } else {
            unchanged = st->elapsed_s == last_elapsed ? unchanged + 1 : 0;
            last_elapsed = st->elapsed_s;
            if (!once) std::printf("\033[2J\033[H");
            render_live(*st, path, unchanged >= 4);
            if (once) return 0;
        }
        std::fflush(stdout);
        std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
}

// ----------------------------------------------------------- replay mode

struct DumpEvent {
    std::uint64_t seq = 0;
    std::string kind;
    double t = 0.0;
    std::int64_t a = 0;
    std::int64_t b = 0;
};

bool is_op_kind(const std::string& k) {
    return k == "insert" || k == "pop" || k == "combined";
}

const char* scrub_action_name(std::int64_t a) {
    switch (a) {
        case 0: return "clean";
        case 1: return "repaired";
        case 2: return "rebuilt";
    }
    return "?";
}

const char* reshard_event_name(std::int64_t a) {
    switch (a) {
        case 0: return "add";
        case 1: return "fence";
        case 2: return "detach";
        case 3: return "rebalance";
    }
    return "?";
}

int run_replay(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "wfqs_top: cannot read dump '%s'\n", path.c_str());
        return 2;
    }
    std::string line;
    if (!std::getline(in, line) || line.rfind("# wfqs-ops", 0) != 0) {
        std::fprintf(stderr, "wfqs_top: '%s' is not a wfqs-ops dump\n",
                     path.c_str());
        return 2;
    }
    std::vector<std::string> reason;
    std::vector<DumpEvent> events;
    std::size_t op_lines = 0;
    while (std::getline(in, line)) {
        DumpEvent ev;
        char kind[32] = {0};
        if (std::sscanf(line.c_str(), "# ev %llu %31s t=%lf a=%lld b=%lld",
                        reinterpret_cast<unsigned long long*>(&ev.seq), kind,
                        &ev.t, reinterpret_cast<long long*>(&ev.a),
                        reinterpret_cast<long long*>(&ev.b)) == 5) {
            ev.kind = kind;
            events.push_back(std::move(ev));
        } else if (line.rfind("# ", 0) == 0) {
            reason.push_back(line.substr(2));
        } else if (!line.empty() && line[0] != '#') {
            ++op_lines;
        }
    }

    std::printf("wfqs_top — flight dump %s\n", path.c_str());
    for (const std::string& r : reason) std::printf("  %s\n", r.c_str());

    // Event-kind census.
    std::vector<std::pair<std::string, std::uint64_t>> census;
    for (const DumpEvent& ev : events) {
        bool found = false;
        for (auto& [k, n] : census)
            if (k == ev.kind) {
                ++n;
                found = true;
            }
        if (!found) census.emplace_back(ev.kind, 1);
    }
    std::printf("\n%zu events in ring (%zu replayable op lines):", events.size(),
                op_lines);
    for (const auto& [k, n] : census)
        std::printf(" %s=%llu", k.c_str(), static_cast<unsigned long long>(n));
    std::printf("\n\ntimeline (op runs collapsed):\n");

    // Collapse op runs; print annotations individually.
    constexpr std::size_t kMaxAnnotations = 64;
    std::size_t printed = 0, suppressed = 0;
    std::size_t i = 0;
    while (i < events.size()) {
        if (is_op_kind(events[i].kind)) {
            std::uint64_t ni = 0, np = 0, nc = 0;
            const double t_from = events[i].t;
            double t_to = t_from;
            while (i < events.size() && is_op_kind(events[i].kind)) {
                t_to = events[i].t;
                if (events[i].kind == "insert") ++ni;
                else if (events[i].kind == "pop") ++np;
                else ++nc;
                ++i;
            }
            std::printf("  t=[%g..%g] %llu ops (%llu i / %llu p / %llu c)\n",
                        t_from, t_to,
                        static_cast<unsigned long long>(ni + np + nc),
                        static_cast<unsigned long long>(ni),
                        static_cast<unsigned long long>(np),
                        static_cast<unsigned long long>(nc));
            continue;
        }
        const DumpEvent& ev = events[i++];
        if (printed >= kMaxAnnotations) {
            ++suppressed;
            continue;
        }
        ++printed;
        if (ev.kind == "scrub") {
            std::printf("  t=%g SCRUB %s, %lld entries lost\n", ev.t,
                        scrub_action_name(ev.a), static_cast<long long>(ev.b));
        } else if (ev.kind == "reshard") {
            std::printf("  t=%g RESHARD %s bank=%lld\n", ev.t,
                        reshard_event_name(ev.a), static_cast<long long>(ev.b));
        } else {
            std::printf("  t=%g %s a=%lld b=%lld\n", ev.t, ev.kind.c_str(),
                        static_cast<long long>(ev.a),
                        static_cast<long long>(ev.b));
        }
    }
    if (suppressed > 0)
        std::printf("  (... %zu more annotations)\n", suppressed);
    std::printf("\nreplay the op tail: wfqs_fuzz --replay %s\n", path.c_str());
    return 0;
}

[[noreturn]] void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s STATUS_FILE [--interval MS] [--once]\n"
                 "       %s --replay DUMP.ops\n",
                 argv0, argv0);
    std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
    std::string path, replay;
    int interval_ms = 500;
    bool once = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--replay") replay = value();
        else if (arg == "--interval") interval_ms = std::atoi(value().c_str());
        else if (arg == "--once") once = true;
        else if (!arg.empty() && arg[0] == '-') usage(argv[0]);
        else path = arg;
    }
    if (!replay.empty()) return run_replay(replay);
    if (path.empty() || interval_ms <= 0) usage(argv[0]);
    return run_live(path, interval_ms, once);
}
