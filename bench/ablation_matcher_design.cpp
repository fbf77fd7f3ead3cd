// Design-space ablations behind the matcher choice (ref [13]) and the
// §III-A node-width decision.
//
// Part 1 — block-size sweep: the blocked circuits (block/skip/select &
// look-ahead) have a free parameter; the classic optimum is b ≈ sqrt(W).
// We sweep it and report delay/area, confirming the default choice.
//
// Part 2 — unequal node widths: §III-A: "Another option available is to
// use node widths that are not equal in each level ... The main reason
// for not using this option is that the total search time will be most
// affected by the search time needed for the widest node. If all nodes
// are equal width, all will execute in equal time." We enumerate level
// partitions of a 12-bit tag space and compute each design's cycle time
// (set by the widest node's matcher), pipeline depth, and tree memory —
// showing the equal-width 4/4/4 point the paper picked.
#include <cstdio>
#include <vector>

#include "common/table.hpp"
#include "matcher/circuit.hpp"
#include "obs/bench_io.hpp"

using namespace wfqs;
using namespace wfqs::matcher;

namespace {

void block_sweep(obs::MetricsRegistry& reg) {
    std::printf("-- Part 1: block-size sweep (delay in gate units / area in GE) --\n");
    const MatcherKind kinds[] = {MatcherKind::BlockLookahead, MatcherKind::SkipLookahead,
                                 MatcherKind::SelectLookahead};
    const char* kind_keys[] = {"block_la", "skip_la", "select_la"};
    for (const unsigned width : {16u, 64u}) {
        TextTable table({"block", "block LA delay", "area", "skip LA delay", "area",
                         "select LA delay", "area"});
        for (unsigned block : {2u, 4u, 8u, 16u, 32u}) {
            if (block > width) continue;
            std::vector<std::string> row = {TextTable::num(std::uint64_t{block})};
            for (std::size_t k = 0; k < 3; ++k) {
                const MatcherCircuit c = build_matcher(kinds[k], width, block);
                const double delay = c.netlist().critical_path_delay();
                const double area = c.netlist().area_gate_equivalents();
                row.push_back(TextTable::num(delay, 1));
                row.push_back(TextTable::num(area, 0));
                const std::string base = "amd." + std::string(kind_keys[k]) + ".w" +
                                         std::to_string(width) + ".b" +
                                         std::to_string(block) + ".";
                reg.gauge(base + "delay").set(delay);
                reg.gauge(base + "area_ge").set(area);
            }
            table.add_row(row);
        }
        std::printf("width %u:\n%s\n", width, table.render().c_str());
    }
    std::printf("expected: delay minimised near block = sqrt(width) for skip and\n");
    std::printf("select (the library default), with area growing with block size\n");
    std::printf("inside the look-ahead blocks.\n\n");
}

std::uint64_t tree_bits_for(const std::vector<unsigned>& level_bits) {
    // Generalised eq. (3): level l holds prod(branching of levels < l)
    // nodes, each as wide as its own branching factor.
    std::uint64_t bits = 0;
    std::uint64_t nodes = 1;
    for (const unsigned b : level_bits) {
        bits += nodes * (std::uint64_t{1} << b);
        nodes *= (std::uint64_t{1} << b);
    }
    return bits;
}

void node_width_sweep(obs::MetricsRegistry& reg) {
    std::printf("-- Part 2: unequal node widths over a 12-bit tag space --\n");
    const std::vector<std::vector<unsigned>> partitions = {
        {4, 4, 4},  // the paper's choice
        {6, 3, 3}, {3, 3, 6}, {6, 6},    {5, 4, 3},
        {3, 4, 5}, {2, 5, 5}, {4, 4, 2, 2}, {3, 3, 3, 3}, {2, 2, 2, 2, 2, 2},
    };
    TextTable table({"widths (bits)", "levels", "widest matcher delay",
                     "cycle-time balance", "tree bits", "walk cycles"});
    for (const auto& p : partitions) {
        std::string label;
        double worst = 0.0, best = 1e9;
        for (const unsigned b : p) {
            if (!label.empty()) label += '/';
            label += std::to_string(b);
            const double d =
                build_matcher(MatcherKind::SelectLookahead, 1u << b)
                    .netlist()
                    .critical_path_delay();
            worst = std::max(worst, d);
            best = std::min(best, d);
        }
        table.add_row({label, TextTable::num(std::uint64_t{p.size()}),
                       TextTable::num(worst, 1),
                       TextTable::num(best / worst, 2),  // 1.00 = perfectly balanced
                       TextTable::num(tree_bits_for(p)),
                       TextTable::num(std::uint64_t{p.size() + 1})});
        std::string key = label;
        for (char& c : key)
            if (c == '/') c = '_';
        const std::string base = "amd.partition_" + key + ".";
        reg.gauge(base + "widest_matcher_delay").set(worst);
        reg.gauge(base + "cycle_time_balance").set(best / worst);
        reg.counter(base + "tree_bits").inc(tree_bits_for(p));
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("the clock period is set by the *widest* node's matcher; unequal\n");
    std::printf("widths waste the narrow levels' slack (balance < 1.00) — the\n");
    std::printf("paper's reason for equal 4/4/4 despite the slightly smaller\n");
    std::printf("memory of top-heavy variants.\n");
}

}  // namespace

int main(int argc, char** argv) {
    obs::BenchReporter reporter("ablation_matcher_design", argc, argv);
    std::printf("== ablation: matcher design space (ref [13], §III-A) ==\n\n");
    block_sweep(reporter.registry());
    node_width_sweep(reporter.registry());
    reporter.finish();
    return 0;
}
