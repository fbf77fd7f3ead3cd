// Cross-module integration tests — the strongest correctness evidence in
// the suite:
//
//  1. The full Fig. 1 scheduler built on the paper's multi-bit tree sorter
//     produces *exactly* the same departure sequence as the same scheduler
//     built on a reference binary heap, over realistic mixed traffic.
//  2. WFQ departures respect the GPS delay bound (within one max packet
//     time of the fluid ideal), while FIFO violates it badly.
//  3. WFQ bandwidth shares track weights through overload (Jain index).
//  4. Binning as the sort structure degrades QoS (the §II-B argument).
#include <gtest/gtest.h>

#include "analysis/delay_stats.hpp"
#include "analysis/fairness.hpp"
#include "analysis/throughput.hpp"
#include "baselines/factory.hpp"
#include "net/sim_driver.hpp"
#include "net/traffic_gen.hpp"
#include "sched_prog/pifo_scheduler.hpp"
#include "scheduler/fifo.hpp"
#include "scheduler/round_robin.hpp"

namespace wfqs {
namespace {

constexpr net::TimeNs kSecond = 1'000'000'000;

/// The Fig. 1 scheduler: `policy` tags over `kind` sort structures.
sched_prog::PifoScheduler make_fq(
    std::uint64_t rate, baselines::QueueKind kind,
    sched_prog::RankPolicy policy = sched_prog::RankPolicy::kWfq) {
    sched_prog::PifoScheduler::Config cfg;
    cfg.policy = policy;
    cfg.rank.link_rate_bps = rate;
    // One tag step = 64 virtual-time units: coarse enough that a 20-bit
    // tag window covers the deepest buffer backlog (see TagQuantizer).
    cfg.rank.tag_granularity_bits = -6;
    return sched_prog::PifoScheduler(
        cfg, [kind] { return baselines::make_tag_queue(kind, {20, 1 << 16}); });
}

TEST(Integration, SorterAndHeapProduceIdenticalDepartures) {
    // The multi-bit tree sorter is an exact priority queue: swapping it
    // for a heap must not change a single departure.
    const std::uint64_t rate = 20'000'000;
    auto run_with = [&](baselines::QueueKind kind) {
        auto sched = make_fq(rate, kind);
        auto flows = net::make_mixed_profile(kSecond, 99);
        net::SimDriver driver(rate);
        return driver.run(sched, flows);
    };
    const auto with_sorter = run_with(baselines::QueueKind::MultibitTree);
    const auto with_heap = run_with(baselines::QueueKind::Heap);

    ASSERT_EQ(with_sorter.records.size(), with_heap.records.size());
    ASSERT_GT(with_sorter.records.size(), 1000u);
    for (std::size_t i = 0; i < with_sorter.records.size(); ++i) {
        ASSERT_EQ(with_sorter.records[i].packet.id, with_heap.records[i].packet.id)
            << "departure order diverged at position " << i;
        ASSERT_EQ(with_sorter.records[i].departure_ns, with_heap.records[i].departure_ns);
    }
}

TEST(Integration, BinaryTreeSorterAlsoMatches) {
    const std::uint64_t rate = 20'000'000;
    auto run_with = [&](baselines::QueueKind kind) {
        auto sched = make_fq(rate, kind);
        auto flows = net::make_voip_heavy_profile(kSecond / 2, 7);
        net::SimDriver driver(rate);
        return driver.run(sched, flows);
    };
    const auto a = run_with(baselines::QueueKind::BinaryTree);
    const auto b = run_with(baselines::QueueKind::Heap);
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t i = 0; i < a.records.size(); ++i)
        ASSERT_EQ(a.records[i].packet.id, b.records[i].packet.id);
}

TEST(Integration, WfqRespectsGpsDelayBound) {
    const std::uint64_t rate = 20'000'000;
    auto sched = make_fq(rate, baselines::QueueKind::MultibitTree);
    auto flows = net::make_mixed_profile(kSecond, 5);
    std::vector<std::uint32_t> weights;
    for (const auto& f : flows) weights.push_back(f.weight);
    net::SimDriver driver(rate);
    const auto result = driver.run(sched, flows);

    const auto gps = analysis::compare_with_gps(result.records, weights, rate);
    ASSERT_GT(gps.packets, 1500u);
    // Quantisation adds a small epsilon on top of the theoretical
    // L_max/r; allow 2x the bound to absorb it.
    EXPECT_GE(gps.within_bound_fraction, 0.999);
    EXPECT_LE(gps.worst_lag_s, 2.0 * gps.bound_s);
}

TEST(Integration, FifoViolatesGpsBoundUnderCrossTraffic) {
    const std::uint64_t rate = 20'000'000;
    scheduler::FifoScheduler fifo;
    auto flows = net::make_voip_heavy_profile(kSecond / 2, 5);
    std::vector<std::uint32_t> weights;
    for (const auto& f : flows) weights.push_back(f.weight);
    net::SimDriver driver(rate);
    const auto result = driver.run(fifo, flows);

    const auto gps = analysis::compare_with_gps(result.records, weights, rate);
    // The bursty cross-traffic pushes VoIP far beyond its GPS finish.
    EXPECT_LT(gps.within_bound_fraction, 0.99);
    EXPECT_GT(gps.worst_lag_s, 2.0 * gps.bound_s);
}

TEST(Integration, WfqSharesTrackWeightsUnderOverload) {
    const std::uint64_t rate = 10'000'000;
    auto sched = make_fq(rate, baselines::QueueKind::MultibitTree);
    std::vector<net::FlowSpec> flows;
    for (std::uint32_t w : {1u, 2u, 4u, 8u})
        flows.push_back(
            {std::make_unique<net::CbrSource>(8'000'000, 400, 0, kSecond / 4), w});
    std::vector<std::uint32_t> weights{1, 2, 4, 8};
    net::SimDriver driver(rate);
    const auto result = driver.run(sched, flows);

    // Jain index over weight-normalised service in the saturated window.
    const auto service = analysis::normalized_service(result.records, weights,
                                                      kSecond / 100, kSecond / 5);
    EXPECT_GT(analysis::jain_fairness_index(service), 0.99);
}

TEST(Integration, BinningDegradesVoipDelay) {
    // §II-B: binning "aggregates values together in groups and is
    // inherently inaccurate" — with the same WFQ tags, VoIP p99 delay
    // under binning is measurably worse than under the exact sorter.
    const std::uint64_t rate = 20'000'000;
    auto run_with = [&](baselines::QueueKind kind) {
        auto sched = make_fq(rate, kind);
        auto flows = net::make_voip_heavy_profile(kSecond / 2, 21);
        net::SimDriver driver(rate);
        const auto result = driver.run(sched, flows);
        const auto reports = analysis::per_flow_delays(result.records, flows.size());
        double worst_voip_p99 = 0.0;
        for (std::size_t f = 0; f + 1 < flows.size(); ++f)  // last flow is bursty
            worst_voip_p99 = std::max(worst_voip_p99, reports[f].p99_delay_us);
        return worst_voip_p99;
    };
    const double exact_p99 = run_with(baselines::QueueKind::MultibitTree);
    const double binned_p99 = run_with(baselines::QueueKind::Binning);
    EXPECT_GT(binned_p99, exact_p99 * 1.2);
}

TEST(Integration, ThroughputReportSaturatesLink) {
    const std::uint64_t rate = 10'000'000;
    auto sched = make_fq(rate, baselines::QueueKind::Heap);
    std::vector<net::FlowSpec> flows;
    flows.push_back(
        {std::make_unique<net::CbrSource>(20'000'000, 1000, 0, kSecond / 4), 1});
    net::SimDriver driver(rate);
    const auto result = driver.run(sched, flows);
    const auto tp = analysis::measure_throughput(result.records, rate);
    EXPECT_GT(tp.utilization, 0.95);
    EXPECT_LE(tp.utilization, 1.01);
}

TEST(Integration, AllFairQueueingVariantsRunTheSorter) {
    // WFQ, WF2Q+, SCFQ and FBFQ all feed the same sort/retrieve circuit
    // (§II).
    using sched_prog::RankPolicy;
    for (const auto policy :
         {RankPolicy::kWfq, RankPolicy::kWf2q, RankPolicy::kScfq, RankPolicy::kFbfq}) {
        auto sched = make_fq(20'000'000, baselines::QueueKind::MultibitTree, policy);
        auto flows = net::make_mixed_profile(kSecond / 4, 3);
        net::SimDriver driver(20'000'000);
        const auto result = driver.run(sched, flows);
        EXPECT_GT(result.records.size(), 300u) << sched.name();
        EXPECT_EQ(result.records.size() + result.dropped_packets,
                  result.offered_packets)
            << sched.name();
    }
}

}  // namespace
}  // namespace wfqs
