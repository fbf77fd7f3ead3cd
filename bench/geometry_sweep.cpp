// Experiment G1 — the wide-tag geometry sweep behind DESIGN.md §15.
//
// The paper's silicon instance sorts a 12-bit tag space; this sweep takes
// the same circuit through heterogeneous 20/24/32-bit geometries and
// reports what widening actually costs: per-op modeled cycles, tree
// memory (eq. 3), the translation tier (flat SRAM vs hot-cache + bulk),
// and how often the moving window crosses the physical 2^W seam. A
// second phase holds a million resident tags in the tiered table at the
// full 32-bit width — the configuration a flat one-entry-per-value table
// cannot even allocate — and reports the hot-tier hit rate and the
// amortized miss cost.
//
// Every number here is modeled (seed-deterministic): perf_smoke.py gates
// the committed BENCH_geometry.json envelope on the cycles_per_op gauges
// and the global hw.cycles counter exactly.
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/tag_sorter.hpp"
#include "hw/simulation.hpp"
#include "obs/bench_io.hpp"

using namespace wfqs;
using namespace wfqs::core;

namespace {

struct Row {
    const char* name;
    tree::TreeGeometry geometry;
};

/// Mixed workload scaled to the row's window span: combined ops march the
/// window forward (~3/8 span per jump, so the seam is crossed every few
/// ops even at 32 bits) while inserts/pops churn a small backlog across
/// it. Identical op stream shape at every width; only the deltas scale.
std::uint64_t sweep_row(const Row& row, obs::BenchReporter& reporter) {
    hw::Simulation sim;
    TagSorter sorter({row.geometry, 4096, 24}, sim);
    Rng rng(reporter.seed(31));
    const std::uint64_t span = sorter.window_span();
    const std::uint64_t stride = std::max<std::uint64_t>(1, (span * 3) / 8);

    constexpr int kOps = 30000;
    sorter.insert(0, 0);
    for (int i = 0; i < kOps; ++i) {
        const std::uint64_t head = sorter.peek_min()->tag;
        if (i % 8 < 5) {
            sorter.insert_and_pop(head + rng.next_below(stride), 0);
        } else if (sorter.size() < 48) {
            sorter.insert(head + rng.next_below(stride / 2 + 1), 0);
        } else {
            sorter.pop_min();
        }
    }

    const SorterStats& st = sorter.stats();
    const std::uint64_t total_ops = st.inserts + st.pops + st.combined_ops;
    const std::uint64_t cycles = sim.clock().now();
    const double cycles_per_op = static_cast<double>(cycles) / total_ops;
    const storage::TranslationTable& table = sorter.table();

    const std::string base = std::string("geometry.") + row.name + ".";
    auto& reg = reporter.registry();
    reg.gauge(base + "cycles_per_op").set(cycles_per_op);
    reg.gauge(base + "worst_insert_cycles")
        .set(static_cast<double>(st.worst_insert_cycles));
    reg.counter(base + "tag_bits").inc(row.geometry.tag_bits());
    reg.counter(base + "levels").inc(row.geometry.levels);
    reg.counter(base + "tree_bits").inc(row.geometry.total_memory_bits());
    reg.counter(base + "hist_bins").inc(TagSorter::hist_bins({row.geometry}));
    reg.counter(base + "seam_crossings").inc(st.wrap_fallback_searches);
    reg.counter(base + "sector_invalidations").inc(st.sector_invalidations);
    reg.gauge(base + "table_tiered").set(table.tiered() ? 1.0 : 0.0);
    if (table.stats().lookups > 0)
        reg.gauge(base + "table_hot_hit_rate")
            .set(static_cast<double>(table.stats().hot_hits) /
                 static_cast<double>(table.stats().lookups));
    return cycles;
}

/// Phase 2: a million resident tags at the full 32-bit width. The flat
/// table would need 2^32 entries just to exist; the tiered table holds
/// the hot head in a 2^14-line SRAM and the bulk at DRAM latency.
std::uint64_t run_tiered_resident_phase(obs::BenchReporter& reporter) {
    hw::Simulation sim;
    TagSorter::Config cfg;
    cfg.geometry = tree::TreeGeometry::wide32();
    cfg.capacity = std::size_t{1} << 20;
    constexpr std::uint64_t kResident = 1'000'000;
    TagSorter sorter(cfg, sim);
    Rng rng(reporter.seed(67));

    // Fill: distinct tags spread across ~1/4 of the window.
    std::uint64_t cursor = 0;
    for (std::uint64_t i = 0; i < kResident; ++i) {
        cursor += 1 + rng.next_below(800);
        sorter.insert(cursor, 0);
    }
    // Churn: combined ops keep the resident set at kResident. Half chase
    // the head (hot-tier hits), half scatter across the million-value
    // live window — a 2^14-line cache in front of 10^6 residents misses
    // almost every scattered lookup, so the DRAM penalty is actually
    // exercised and shows up in the cycles_per_op envelope.
    constexpr int kChurn = 50000;
    for (int i = 0; i < kChurn; ++i) {
        if (i % 2 == 0) {
            cursor += 1 + rng.next_below(800);
            sorter.insert_and_pop(cursor, 0);
        } else {
            const std::uint64_t head = sorter.peek_min()->tag;
            sorter.insert_and_pop(head + 1 + rng.next_below(cursor - head), 0);
        }
    }

    const storage::TranslationTable& table = sorter.table();
    const std::uint64_t cycles = sim.clock().now();
    const std::uint64_t total_ops =
        sorter.stats().inserts + sorter.stats().combined_ops;
    auto& reg = reporter.registry();
    reg.counter("tiered.resident_tags").inc(table.resident());
    reg.counter("tiered.bulk_misses").inc(table.stats().bulk_misses);
    reg.gauge("tiered.cycles_per_op")
        .set(static_cast<double>(cycles) / static_cast<double>(total_ops));
    reg.gauge("tiered.hot_hit_rate")
        .set(static_cast<double>(table.stats().hot_hits) /
             static_cast<double>(table.stats().lookups));
    std::printf("tiered phase: %llu resident tags, hot hit rate %.3f, "
                "%.1f cycles/op over %llu ops\n",
                static_cast<unsigned long long>(table.resident()),
                static_cast<double>(table.stats().hot_hits) /
                    static_cast<double>(table.stats().lookups),
                static_cast<double>(cycles) / static_cast<double>(total_ops),
                static_cast<unsigned long long>(total_ops));
    return cycles;
}

}  // namespace

int main(int argc, char** argv) {
    obs::BenchReporter reporter("geometry_sweep", argc, argv);
    std::printf("== G1: wide-tag geometry sweep (12 -> 32 bits) ==\n\n");

    const std::vector<Row> rows = {
        {"paper12", tree::TreeGeometry::paper()},
        {"het20", tree::TreeGeometry::heterogeneous({5, 4, 5, 6})},
        {"het24", tree::TreeGeometry::heterogeneous({2, 4, 6, 6, 6})},
        {"wide32", tree::TreeGeometry::wide32()},
    };

    TextTable table({"geometry", "bits", "levels", "tree bits", "hist bins",
                     "cycles/op", "seam crossings", "table"});
    std::uint64_t hw_cycles = 0;
    for (const Row& row : rows) {
        hw_cycles += sweep_row(row, reporter);
        auto& reg = reporter.registry();
        const std::string base = std::string("geometry.") + row.name + ".";
        table.add_row(
            {row.name, TextTable::num(std::uint64_t{row.geometry.tag_bits()}),
             TextTable::num(std::uint64_t{row.geometry.levels}),
             TextTable::num(row.geometry.total_memory_bits()),
             TextTable::num(std::uint64_t{TagSorter::hist_bins({row.geometry})}),
             TextTable::num(reg.gauge(base + "cycles_per_op").value(), 2),
             TextTable::num(reg.counter(base + "seam_crossings").value()),
             reg.gauge(base + "table_tiered").value() > 0.0 ? "tiered" : "flat"});
    }
    std::printf("%s\n", table.render().c_str());

    hw_cycles += run_tiered_resident_phase(reporter);
    reporter.registry().counter("hw.cycles").inc(hw_cycles);

    std::printf("\nexpected shape: per-op cycles grow with tree depth (one level\n");
    std::printf("per literal), not with the 4096x wider value space; the tiered\n");
    std::printf("table holds a million residents where the flat table cannot\n");
    std::printf("allocate, and the hot tier absorbs the head-locality lookups.\n");
    reporter.record_host_ops(4 * 30000 + 1'000'000 + 50000);
    reporter.finish();
    return 0;
}
