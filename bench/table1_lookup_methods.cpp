// Experiment T1 — reproduces Table I: "Comparing lookup methods
// available".
//
// The paper tabulates worst-case cost per lookup for software structures
// (O-notation) and hardware options (memory accesses). Here every
// structure runs the *same* fair-queueing-shaped workload (tags within a
// bounded window above the moving minimum, heavy duplicates) and we
// report the measured worst/average accesses per insert and per serve
// next to the analytic column. The shape to check against the paper:
//
//   - search-model structures (binning, CAMs) pay on the serving path;
//   - binary CAM worst case explodes with the value range;
//   - TCAM ~ W probes; binary tree ~ W; multi-bit tree ~ W/k — the
//     smallest worst case of all hardware options;
//   - software structures scale with N (or log N), not the word width.
//
// A second, host-side section times an insert/pop sweep over the main
// structures in wall-clock ns/op (host.* gauges: machine-dependent, so
// tools/perf_smoke.py ignores them).
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "baselines/factory.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "obs/bench_io.hpp"

using namespace wfqs;
using namespace wfqs::baselines;

int main(int argc, char** argv) {
    obs::BenchReporter reporter("table1_lookup_methods", argc, argv);
    std::printf("== Table I: comparing lookup methods ==\n");
    std::printf("Workload: 12-bit tags, 40k ops, window <= 600 above the minimum,\n");
    std::printf("~55%% inserts, occupancy up to 512 tags (seed 2024).\n\n");

    TextTable table({"method", "model", "analytic", "worst ins", "worst pop",
                     "avg/op", "exact"});

    for (const QueueKind kind : all_queue_kinds()) {
        auto q = make_tag_queue(kind, {12, 4096});
        Rng rng(reporter.seed(2024));
        std::uint64_t min_live = 0;
        for (int i = 0; i < 40000; ++i) {
            if (q->size() < 512 && (q->empty() || rng.next_bool(0.55))) {
                const std::uint64_t tag =
                    std::min<std::uint64_t>(min_live + rng.next_below(600), 4095);
                q->insert(tag, 0);
            } else if (const auto e = q->pop_min()) {
                min_live = std::max(min_live, e->tag);
            }
        }
        table.add_row({q->name(), q->model(), q->complexity(),
                       TextTable::num(q->stats().worst_insert_accesses),
                       TextTable::num(q->stats().worst_pop_accesses),
                       TextTable::num(q->stats().avg_accesses_per_op(), 2),
                       q->exact() ? "yes" : "NO"});
        const std::string base = "t1." + q->name() + ".";
        auto& reg = reporter.registry();
        reg.counter(base + "worst_insert_accesses").inc(q->stats().worst_insert_accesses);
        reg.counter(base + "worst_pop_accesses").inc(q->stats().worst_pop_accesses);
        reg.gauge(base + "avg_accesses_per_op").set(q->stats().avg_accesses_per_op());
    }
    std::printf("%s\n", table.render().c_str());

    // Host cost: alternate inserts and pops around ~256 live 12-bit tags.
    constexpr int kHostOps = 1 << 20;
    TextTable host({"method", "host ns/op"});
    for (const QueueKind kind : {QueueKind::MultibitTree, QueueKind::Heap,
                                 QueueKind::Skiplist, QueueKind::Calendar,
                                 QueueKind::Veb}) {
        auto q = make_tag_queue(kind, {12, 8192});
        Rng rng(reporter.seed(2));
        std::uint64_t min_live = 0;
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < kHostOps; ++i) {
            if (q->size() < 256) {
                q->insert(std::min<std::uint64_t>(min_live + rng.next_below(500), 4095), 0);
            } else if (const auto e = q->pop_min()) {
                min_live = std::max(min_live, e->tag);
            }
        }
        const double ns = std::chrono::duration<double, std::nano>(
                              std::chrono::steady_clock::now() - t0)
                              .count() /
                          kHostOps;
        host.add_row({q->name(), TextTable::num(ns, 1)});
        reporter.registry().gauge("host.t1." + q->name() + ".ns_per_op").set(ns);
    }
    std::printf("%s\n", host.render().c_str());

    std::printf("Paper's verdict (§II-D): the multi-bit tree has the lowest\n");
    std::printf("worst-case lookup complexity of all options and conforms to the\n");
    std::printf("sort model, so serving the minimum never waits on a search.\n");
    reporter.finish();
    return 0;
}
