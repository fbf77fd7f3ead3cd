// Tier-1 differential conformance suite: every sorter configuration,
// every matcher variant, and the scheduler family run modest randomized
// workloads in lockstep with the golden models of src/ref. The heavy
// soak lives in tools/wfqs_fuzz (CI's fuzz-soak job); this suite keeps
// the same oracles on every developer build.
#include <gtest/gtest.h>

#include "matcher/matcher.hpp"
#include "proptest/differ.hpp"
#include "proptest/proptest.hpp"

namespace wfqs::proptest {
namespace {

/// Window span of a config without building a full harness around it.
std::uint64_t span_of(const core::TagSorter::Config& config) {
    hw::Simulation sim;
    return core::TagSorter(config, sim).window_span();
}

/// Run a few cases of every generation profile against `check`; report
/// the minimized counterexample on failure.
void expect_conformant(const std::string& name, std::uint64_t span,
                       const CheckFn& check, std::size_t cases = 10,
                       std::size_t ops_per_case = 1500) {
    RunConfig cfg;
    cfg.seed = 0xC0FFEE;
    cfg.cases = cases;
    cfg.ops_per_case = ops_per_case;
    cfg.profiles = all_profiles(span);
    const auto failure = run_property(cfg, check);
    if (failure) {
        FAIL() << name << " diverged (profile " << failure->profile << ", seed "
               << failure->seed << "): " << failure->message << "\nminimized to "
               << failure->ops.size() << " ops:\n"
               << to_text(failure->ops);
    }
}

// ------------------------------------------------------------- TagSorter

TEST(Conformance, TagSorterAllGeometries) {
    for (const auto& entry : standard_tag_configs()) {
        SCOPED_TRACE(entry.name);
        expect_conformant(
            entry.name, span_of(entry.config),
            [&](const OpSeq& ops) { return diff_tag_sorter(ops, entry.config); });
    }
}

TEST(Conformance, TagSorterNetlistMatchers) {
    // Gate-level engines are slow; fewer, shorter cases per kind.
    for (const matcher::MatcherKind kind : matcher::all_matcher_kinds()) {
        matcher::NetlistMatcher engine(kind);
        SCOPED_TRACE(engine.name());
        core::TagSorter::Config config;  // paper geometry
        expect_conformant(
            "netlist-" + engine.name(), span_of(config),
            [&](const OpSeq& ops) { return diff_tag_sorter(ops, config, &engine); },
            /*cases=*/5, /*ops_per_case=*/400);
    }
}

TEST(Conformance, TagSorterNetlistOnEdgeGeometries) {
    // Matcher edge geometry: branching factor 2 (1-bit literals) and 32
    // (5-bit literals) through a real netlist, plus the single-level
    // tree — the matcher sees node words of 2, 32, and 16 bits.
    matcher::NetlistMatcher engine(matcher::MatcherKind::SelectLookahead);
    for (const auto& geometry :
         {tree::TreeGeometry{6, 1}, tree::TreeGeometry{2, 5},
          tree::TreeGeometry{1, 4}}) {
        core::TagSorter::Config config;
        config.geometry = geometry;
        SCOPED_TRACE(std::to_string(geometry.levels) + "x" +
                     std::to_string(geometry.bits_per_level));
        expect_conformant(
            "netlist-edge-geometry", span_of(config),
            [&](const OpSeq& ops) { return diff_tag_sorter(ops, config, &engine); },
            /*cases=*/5, /*ops_per_case=*/400);
    }
}

// --------------------------------------------------------- ShardedSorter

TEST(Conformance, ShardedSorterAllBankConfigs) {
    for (const auto& entry : standard_sharded_configs()) {
        SCOPED_TRACE(entry.name);
        hw::Simulation probe;
        const std::uint64_t bank_span =
            core::TagSorter(entry.config.bank, probe).window_span();
        expect_conformant(entry.name, bank_span, [&](const OpSeq& ops) {
            return diff_sharded_sorter(ops, entry.config, entry.flow_mode, {},
                                       entry.reshard);
        });
    }
}

TEST(Conformance, ShardedFlowHashWrapBoundaryRaces) {
    // Simultaneous insert+dequeue at wrap boundaries: a combined-heavy,
    // wrap-heavy mix rides the live window across the 2^12 seam many
    // times per case while insert_and_pop splits its pop and insert
    // across two flow-hashed banks.
    core::ShardedSorter::Config config;
    config.num_banks = 4;
    config.select = core::ShardedSorter::BankSelect::kFlowHash;
    hw::Simulation probe;
    const std::uint64_t bank_span =
        core::TagSorter(config.bank, probe).window_span();

    GenProfile race = wrap_heavy_profile(bank_span);
    race.name = "wrap-race";
    race.insert_prob = 0.25;
    race.pop_prob = 0.15;  // remainder: combined insert_and_pop
    race.min_backlog = 2;
    race.max_backlog = 64;

    RunConfig cfg;
    cfg.seed = 0xACE5;
    cfg.cases = 8;
    cfg.ops_per_case = 3000;
    cfg.profiles = {race};
    const auto failure = run_property(cfg, [&](const OpSeq& ops) {
        return diff_sharded_sorter(ops, config, FlowKeyMode::kByTag);
    });
    if (failure)
        FAIL() << "wrap-boundary race diverged (seed " << failure->seed
               << "): " << failure->message << "\n"
               << to_text(failure->ops);
}

// -------------------------------------------------------- baseline queues

TEST(Conformance, BaselineQueuesAllFamilies) {
    for (const auto& entry : standard_baseline_configs()) {
        SCOPED_TRACE(entry.name);
        expect_conformant(entry.name, entry.span, [&](const OpSeq& ops) {
            return diff_baseline_queue(ops, entry);
        });
    }
}

// --------------------------------------------------------------- matcher

TEST(Conformance, MatcherWordLevelAllKindsAllWidths) {
    // Exhaustive below 2^10 words; structured edges (all-zero word, full
    // word, single bits at block boundaries) + random above. Width 2 is
    // branching factor 2; 32 is branching factor 32; 64 the functional
    // cap of the netlist evaluator.
    matcher::BehavioralMatcher behavioral;
    for (const unsigned width : {2u, 3u, 4u, 8u, 16u, 32u, 64u}) {
        SCOPED_TRACE("width " + std::to_string(width));
        auto err = diff_matcher_width(behavioral, width, 8, 1000, 0xBEEF + width);
        EXPECT_EQ(err, std::nullopt) << *err;
        for (const matcher::MatcherKind kind : matcher::all_matcher_kinds()) {
            matcher::NetlistMatcher engine(kind);
            SCOPED_TRACE(engine.name());
            err = diff_matcher_width(engine, width, 8, 300, 0xBEEF + width);
            EXPECT_EQ(err, std::nullopt) << *err;
        }
    }
}

TEST(Conformance, MatcherAllZeroAndBoundaryTargets) {
    // The k-at-node-boundary cases called out in the issue: target at bit
    // 0, at block edges, and the all-zero occupancy word (no match, no
    // backup) — deterministic, not sampled.
    matcher::BehavioralMatcher behavioral;
    for (const unsigned width : {2u, 4u, 16u, 32u, 64u}) {
        for (unsigned target = 0; target < width; ++target) {
            const auto r = ref::ref_match(0, target, width);
            EXPECT_EQ(r.primary, -1);
            EXPECT_EQ(r.backup, -1);
            EXPECT_EQ(behavioral.match(0, target, width), r);
        }
    }
}

// ---------------------------------------------- fair queueing vs GPS
//
// PifoScheduler with the WFQ and WF2Q+ rank policies owes the
// Parekh–Gallager departure bound D_p <= F_gps + Lmax/r. Zero slack is
// intentional for WF2Q+ too: it gates eligibility on the exact
// GPS-tracking clock (the flat WF2Q+ clock broke the bound by up to
// 3.4 Lmax/r; see Wf2qRank in src/sched_prog/rank.cpp).

/// Seeds [first, last] at `duration_s` on the default harness config:
/// binary heap, +8 tag granularity, zero slack.
void expect_bound_across_seeds(sched_prog::RankPolicy policy, std::uint64_t first,
                               std::uint64_t last, double duration_s) {
    for (std::uint64_t seed = first; seed <= last; ++seed) {
        SchedulerDiffConfig cfg;
        cfg.seed = seed;
        cfg.duration_s = duration_s;
        const auto err = diff_pifo_vs_gps(policy, cfg);
        EXPECT_EQ(err, std::nullopt)
            << "seed " << seed << ", " << duration_s << " s: " << *err;
    }
}

TEST(Conformance, WfqMeetsGpsDepartureBound) {
    expect_bound_across_seeds(sched_prog::RankPolicy::kWfq, 1, 3, 0.05);
}

TEST(Conformance, Wf2qMeetsGpsDepartureBound) {
    expect_bound_across_seeds(sched_prog::RankPolicy::kWf2q, 1, 3, 0.05);
}

TEST(PolicyGpsBound, WfqRankPolicyHoldsAcrossSeeds) {
    expect_bound_across_seeds(sched_prog::RankPolicy::kWfq, 1, 32, 0.02);
}

TEST(PolicyGpsBound, Wf2qRankPolicyHoldsAcrossSeeds) {
    expect_bound_across_seeds(sched_prog::RankPolicy::kWf2q, 1, 32, 0.02);
}

TEST(PolicyGpsBound, WfqOnMultibitTreeMeetsQuantizedBound) {
    // The paper's sorter behind the scheduler, with -4 coarsened tags:
    // each tag rounds up by at most one quantum, which in real time is
    // one quantum of virtual time at the slowest active rate. A generous
    // fixed slack covers that coarsening.
    SchedulerDiffConfig cfg;
    cfg.queue = baselines::QueueKind::MultibitTree;
    cfg.tag_granularity_bits = -4;
    cfg.range_bits = 28;
    cfg.slack_s = 200e-6;
    cfg.seed = 4;
    const auto err = diff_pifo_vs_gps(sched_prog::RankPolicy::kWfq, cfg);
    EXPECT_EQ(err, std::nullopt) << *err;
}

}  // namespace
}  // namespace wfqs::proptest
