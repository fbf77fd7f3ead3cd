// Tests for two-sorter WF2Q eligibility scheduling (PifoScheduler with
// the two-stage kWf2q rank policy): basic mechanics, eligibility gating,
// and the worst-case-fairness property that motivates WF2Q over WFQ (a
// high-weight flow cannot run arbitrarily ahead of its GPS schedule).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "analysis/delay_stats.hpp"
#include "baselines/factory.hpp"
#include "net/sim_driver.hpp"
#include "net/traffic_gen.hpp"
#include "sched_prog/pifo_scheduler.hpp"
#include "wfq/gps_fluid.hpp"

namespace wfqs::sched_prog {
namespace {

constexpr net::TimeNs kSecond = 1'000'000'000;

PifoScheduler make_fq(std::uint64_t rate, RankPolicy policy,
                      baselines::QueueKind kind = baselines::QueueKind::Heap) {
    PifoScheduler::Config cfg;
    cfg.policy = policy;
    cfg.rank.link_rate_bps = rate;
    cfg.rank.tag_granularity_bits = -4;
    return PifoScheduler(cfg,
                         [kind] { return baselines::make_tag_queue(kind, {20, 1 << 16}); });
}

PifoScheduler make_wf2q(std::uint64_t rate,
                        baselines::QueueKind kind = baselines::QueueKind::Heap) {
    return make_fq(rate, RankPolicy::kWf2q, kind);
}

TEST(Wf2q, ServesSinglePacket) {
    auto sched = make_wf2q(1'000'000);
    sched.add_flow(1);
    EXPECT_TRUE(sched.enqueue({1, 0, 100, 0}, 0));
    EXPECT_TRUE(sched.has_packets());
    const auto p = sched.dequeue(0);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->id, 1u);
    EXPECT_FALSE(sched.has_packets());
}

TEST(Wf2q, ServesFinishOrderAmongEligible) {
    auto sched = make_wf2q(1'000'000);
    const auto a = sched.add_flow(1);
    const auto b = sched.add_flow(10);
    // Both arrive at t=0: starts equal V(0)=0, both immediately eligible;
    // the heavy flow's finish is 10x earlier.
    sched.enqueue({1, a, 1000, 0}, 0);
    sched.enqueue({2, b, 1000, 0}, 0);
    EXPECT_EQ(sched.dequeue(0)->id, 2u);
    EXPECT_EQ(sched.dequeue(8'000'000)->id, 1u);
}

TEST(Wf2q, EligibilityHoldsBackFuturePackets) {
    auto sched = make_wf2q(1'000'000);
    const auto a = sched.add_flow(1);
    // Three back-to-back packets on one flow: starts are 0, 8000, 16000
    // virtual units. At dispatch time only the head is eligible; the
    // others are promoted as V advances (work conservation floors V).
    for (std::uint64_t i = 0; i < 3; ++i)
        sched.enqueue({i, a, 1000, 0}, 0);
    EXPECT_EQ(sched.eligible_packets(), 1u);
    EXPECT_EQ(sched.dequeue(0)->id, 0u);
    // Still work-conserving: the next dequeue succeeds by flooring V.
    EXPECT_EQ(sched.dequeue(0)->id, 1u);
    EXPECT_EQ(sched.dequeue(0)->id, 2u);
}

TEST(Wf2q, DropsWhenBufferFull) {
    PifoScheduler::Config cfg;
    cfg.policy = RankPolicy::kWf2q;
    cfg.rank.link_rate_bps = 1'000'000;
    cfg.buffer = {1024, 64};
    PifoScheduler sched(cfg,
                        [] { return baselines::make_tag_queue(baselines::QueueKind::Heap); });
    sched.add_flow(1);
    std::uint64_t accepted = 0;
    for (int i = 0; i < 100; ++i)
        if (sched.enqueue({static_cast<std::uint64_t>(i), 0, 640, 0}, 0)) ++accepted;
    EXPECT_LT(accepted, 100u);
    EXPECT_GT(sched.drops(), 0u);
}

TEST(Wf2q, SlotRecyclingSurvivesLongRuns) {
    // Buffer refs, which key the per-packet service ranks, recycle
    // thousands of times.
    auto sched = make_wf2q(10'000'000);
    const auto a = sched.add_flow(1);
    const auto b = sched.add_flow(3);
    net::TimeNs t = 0;
    std::uint64_t id = 0;
    std::uint64_t served = 0;
    for (int round = 0; round < 2000; ++round) {
        t += 200'000;
        sched.enqueue({id++, a, 500, t}, t);
        sched.enqueue({id++, b, 700, t}, t);
        while (sched.queued_packets() > 4)
            if (sched.dequeue(t)) ++served;
    }
    while (sched.dequeue(t)) ++served;
    EXPECT_EQ(served, id);
}

// The WF2Q headline: with WFQ a heavy backlogged flow can be served far
// ahead of its GPS schedule (bursty output); WF2Q's eligibility test
// bounds that lead to one packet. We measure "service lead" = GPS start
// time − real service start for every packet of the heavy flow.
TEST(Wf2q, BoundsServiceLeadUnlikeWfq) {
    const std::uint64_t rate = 10'000'000;

    auto build_flows = [&] {
        std::vector<net::FlowSpec> flows;
        // Heavy flow: continuously backlogged CBR.
        flows.push_back(
            {std::make_unique<net::CbrSource>(20'000'000, 1000, 0, kSecond / 5), 10});
        // Light flow: sparse packets.
        flows.push_back(
            {std::make_unique<net::CbrSource>(400'000, 500, 0, kSecond / 5), 1});
        return flows;
    };

    auto heavy_lead_s = [&](scheduler::Scheduler& sched) {
        auto flows = build_flows();
        net::SimDriver driver(rate);
        const auto result = driver.run(sched, flows);
        // GPS reference on the same arrivals.
        wfq::GpsFluidSim gps(static_cast<double>(rate));
        gps.add_flow(10.0);
        gps.add_flow(1.0);
        std::vector<const net::PacketRecord*> by_arrival;
        for (const auto& r : result.records) by_arrival.push_back(&r);
        std::stable_sort(by_arrival.begin(), by_arrival.end(), [](auto* x, auto* y) {
            return x->packet.arrival_ns < y->packet.arrival_ns;
        });
        std::map<std::uint64_t, int> gps_id;
        for (const auto* r : by_arrival)
            gps_id[r->packet.id] =
                gps.arrive(static_cast<int>(r->packet.flow),
                           static_cast<double>(r->packet.arrival_ns) / 1e9,
                           static_cast<double>(r->packet.size_bits()));
        std::vector<double> finish;
        for (const auto& d : gps.drain()) {
            if (static_cast<std::size_t>(d.packet) >= finish.size())
                finish.resize(d.packet + 1);
            finish[static_cast<std::size_t>(d.packet)] = d.finish_time;
        }
        double worst_lead = 0.0;
        for (const auto& r : result.records) {
            if (r.packet.flow != 0) continue;
            // Lead = how far before its GPS *finish* the packet completed.
            const double lead = finish[static_cast<std::size_t>(gps_id[r.packet.id])] -
                                static_cast<double>(r.departure_ns) / 1e9;
            worst_lead = std::max(worst_lead, lead);
        }
        return worst_lead;
    };

    auto wfq = make_fq(rate, RankPolicy::kWfq);
    auto wf2q = make_wf2q(rate);

    const double wfq_lead = heavy_lead_s(wfq);
    const double wf2q_lead = heavy_lead_s(wf2q);
    // WF2Q's eligibility test must cut the heavy flow's service lead
    // substantially (theory: to about one packet time = 0.8 ms here).
    EXPECT_LT(wf2q_lead, wfq_lead * 0.7)
        << "wfq lead " << wfq_lead << "s, wf2q lead " << wf2q_lead << "s";
}

TEST(Wf2q, RunsOnTheMultibitTreeSorters) {
    // Both sort operations per packet on the paper's circuit.
    auto sched = make_wf2q(10'000'000, baselines::QueueKind::MultibitTree);
    auto flows = net::make_mixed_profile(kSecond / 10, 9);
    net::SimDriver driver(10'000'000);
    const auto result = driver.run(sched, flows);
    EXPECT_GT(result.records.size(), 100u);
    EXPECT_EQ(result.records.size() + result.dropped_packets, result.offered_packets);
    // Departure times respect the link rate (sanity).
    net::TimeNs prev = 0;
    for (const auto& r : result.records) {
        EXPECT_GE(r.service_start_ns, prev);
        prev = r.departure_ns;
    }
}

}  // namespace
}  // namespace wfqs::sched_prog
