// The programmable scheduling layer (src/sched_prog) under test:
//
//   * rank-function units — determinism across independent instances
//     (the property the whole oracle scheme rests on), policy shapes;
//   * PifoScheduler / SpPifoScheduler / RifoScheduler behaviour;
//   * hierarchical composition (strict priority over DWRR / class WFQ),
//     including class-based queueing as DWRR classes over DRR children;
//   * the peek_size contract, for every scheduler that answers it;
//   * the rank-oracle lockstep differ across every row of
//     standard_policy_configs() — every exact policy on both sorter
//     backends and the approximations against their mirrors;
//   * the committed policy corpus artifacts: SP-PIFO queue-boundary
//     inversions, SRPT starvation, and the sorter-window refusal pinned
//     as behaviour, not just as divergence-free replays.
#include <gtest/gtest.h>

#include <functional>
#include <set>

#include "proptest/differ.hpp"
#include "proptest/proptest.hpp"
#include "ref/ref_rank_oracle.hpp"
#include "sched_prog/hierarchy.hpp"
#include "sched_prog/pifo_scheduler.hpp"
#include "sched_prog/rifo.hpp"
#include "sched_prog/sp_pifo.hpp"
#include "scheduler/fifo.hpp"
#include "scheduler/round_robin.hpp"

#ifndef WFQS_CORPUS_DIR
#error "WFQS_CORPUS_DIR must point at tests/corpus"
#endif

namespace wfqs {
namespace {

using proptest::Op;
using proptest::OpKind;
using proptest::OpSeq;
using sched_prog::RankConfig;
using sched_prog::RankPolicy;

net::Packet make_packet(std::uint64_t id, net::FlowId flow,
                        std::uint32_t bytes, net::TimeNs now) {
    net::Packet p;
    p.id = id;
    p.flow = flow;
    p.size_bytes = bytes;
    p.arrival_ns = now;
    return p;
}

// ------------------------------------------------- rank-function units

TEST(RankFunction, IndependentInstancesAgree) {
    // Two instances of the same policy fed the identical (packet, now)
    // stream produce identical ranks — the determinism contract the
    // lockstep oracles depend on.
    for (const RankPolicy policy : sched_prog::all_rank_policies()) {
        auto a = sched_prog::make_rank_function(policy);
        auto b = sched_prog::make_rank_function(policy);
        for (const std::uint32_t w : {1u, 2u, 4u, 8u}) {
            ASSERT_EQ(a->add_flow(w), b->add_flow(w));
        }
        Rng rng(7);
        net::TimeNs now = 0;
        for (std::uint64_t id = 1; id <= 500; ++id) {
            now += 500 + rng.next_below(1000);
            const auto pkt = make_packet(
                id, static_cast<net::FlowId>(rng.next_below(4)),
                64 + static_cast<std::uint32_t>(rng.next_below(1400)), now);
            const auto ra = a->on_arrival(pkt, now);
            const auto rb = b->on_arrival(pkt, now);
            EXPECT_EQ(ra.rank, rb.rank) << a->name() << " packet " << id;
            EXPECT_EQ(ra.start, rb.start) << a->name() << " packet " << id;
            if (id % 3 == 0) {
                a->on_service(pkt, now);
                a->on_service_rank(ra.rank, now);
                b->on_service(pkt, now);
                b->on_service_rank(rb.rank, now);
            }
        }
    }
}

TEST(RankFunction, PrioIsConstantPerFlow) {
    auto prio = sched_prog::make_rank_function(RankPolicy::kPrio);
    const auto f1 = prio->add_flow(3);
    const auto f2 = prio->add_flow(7);
    for (net::TimeNs now : {100u, 100000u, 10000000u}) {
        EXPECT_EQ(prio->on_arrival(make_packet(1, f1, 500, now), now).rank, 3u);
        EXPECT_EQ(prio->on_arrival(make_packet(2, f2, 900, now), now).rank, 7u);
    }
    EXPECT_FALSE(prio->two_stage());
}

TEST(RankFunction, SrptTracksOutstandingBytes) {
    RankConfig cfg;
    cfg.srpt_shift = 0;  // raw bytes, easiest to reason about
    auto srpt = sched_prog::make_rank_function(RankPolicy::kSrpt, cfg);
    const auto f = srpt->add_flow(1);
    const auto p1 = make_packet(1, f, 1000, 0);
    const auto p2 = make_packet(2, f, 500, 10);
    EXPECT_EQ(srpt->on_arrival(p1, 0).rank, 1000u);
    EXPECT_EQ(srpt->on_arrival(p2, 10).rank, 1500u);
    srpt->on_service(p1, 20);  // bytes leave the backlog once served
    EXPECT_EQ(srpt->on_arrival(make_packet(3, f, 100, 30), 30).rank, 600u);
}

TEST(RankFunction, LstfHeavierWeightsGetTighterDeadlines) {
    RankConfig cfg;
    cfg.lstf_shift = 0;
    auto lstf = sched_prog::make_rank_function(RankPolicy::kLstf, cfg);
    const auto light = lstf->add_flow(1);
    const auto heavy = lstf->add_flow(8);
    const net::TimeNs now = 1'000'000;
    const auto r_light = lstf->on_arrival(make_packet(1, light, 500, now), now);
    const auto r_heavy = lstf->on_arrival(make_packet(2, heavy, 500, now), now);
    EXPECT_LT(r_heavy.rank, r_light.rank);
}

TEST(RankFunction, SelfClockedPoliciesFollowTheServedRank) {
    // One rank step per virtual-time unit; 125-byte packets are 1000
    // virtual units at weight 1.
    RankConfig cfg;
    cfg.link_rate_bps = 1'000'000;
    cfg.tag_granularity_bits = 0;
    // SCFQ: V is the served tag, so a newly active flow starts there.
    auto scfq = sched_prog::make_rank_function(RankPolicy::kScfq, cfg);
    const auto a = scfq->add_flow(1);
    const auto b = scfq->add_flow(1);
    const auto served = scfq->on_arrival(make_packet(1, a, 125, 0), 0).rank;
    EXPECT_EQ(served, 1000u);
    scfq->on_service_rank(served, 10);
    EXPECT_EQ(scfq->on_arrival(make_packet(2, b, 125, 20), 20).rank, 2000u);
    // FBFQ: at the next frame boundary (12000 bits = 12 ms at 1 Mb/s) V
    // jumps to the service point when that is ahead of the frame clock.
    auto fbfq = sched_prog::make_rank_function(RankPolicy::kFbfq, cfg);
    const auto big = fbfq->add_flow(1);
    fbfq->add_flow(1);
    const auto idle = fbfq->add_flow(1);
    const auto point = fbfq->on_arrival(make_packet(3, big, 12'500, 0), 0).rank;
    EXPECT_EQ(point, 100'000u);
    fbfq->on_service_rank(point, 0);
    EXPECT_EQ(fbfq->on_arrival(make_packet(4, idle, 125, 12'000'000), 12'000'000).rank,
              101'000u);
}

TEST(RankFunction, OnlyWf2qIsTwoStage) {
    for (const RankPolicy policy : sched_prog::all_rank_policies()) {
        auto fn = sched_prog::make_rank_function(policy);
        EXPECT_EQ(fn->two_stage(), policy == RankPolicy::kWf2q) << fn->name();
    }
}

// --------------------------------------------------- PifoScheduler

sched_prog::QueueFactory heap_factory() {
    return [] {
        return baselines::make_tag_queue(baselines::QueueKind::Heap, {});
    };
}

TEST(PifoScheduler, ServesInRankOrder) {
    sched_prog::PifoScheduler::Config cfg;
    cfg.policy = RankPolicy::kPrio;
    sched_prog::PifoScheduler sched(cfg, heap_factory());
    const auto urgent = sched.add_flow(1);
    const auto relaxed = sched.add_flow(9);
    ASSERT_TRUE(sched.enqueue(make_packet(1, relaxed, 700, 0), 0));
    ASSERT_TRUE(sched.enqueue(make_packet(2, urgent, 300, 10), 10));
    ASSERT_TRUE(sched.enqueue(make_packet(3, relaxed, 700, 20), 20));
    EXPECT_EQ(sched.queued_packets(), 3u);
    EXPECT_EQ(sched.peek_size(30), std::optional<std::uint32_t>{300});
    EXPECT_EQ(sched.dequeue(30)->id, 2u);   // priority 1 first
    EXPECT_EQ(sched.dequeue(40)->id, 1u);   // then FIFO among priority 9
    EXPECT_EQ(sched.dequeue(50)->id, 3u);
    EXPECT_FALSE(sched.has_packets());
    EXPECT_EQ(sched.name(), "PIFO-prio(binary heap)");
}

TEST(PifoScheduler, Wf2qBuildsTwoQueuesAndDrainsCompletely) {
    sched_prog::PifoScheduler::Config cfg;
    cfg.policy = RankPolicy::kWf2q;
    sched_prog::PifoScheduler sched(cfg, heap_factory());
    const auto f = sched.add_flow(1);
    net::TimeNs now = 0;
    for (std::uint64_t id = 1; id <= 20; ++id) {
        now += 1000;
        ASSERT_TRUE(sched.enqueue(make_packet(id, f, 1000, now), now));
    }
    // Everything queued must come back out (forced promotion included),
    // in arrival order for a single flow.
    std::uint64_t expect = 1;
    while (sched.has_packets()) {
        now += 8000;
        const auto pkt = sched.dequeue(now);
        ASSERT_TRUE(pkt.has_value());
        EXPECT_EQ(pkt->id, expect++);
    }
    EXPECT_EQ(expect, 21u);
}

// --------------------------------------------------- SpPifoScheduler

TEST(SpPifoScheduler, PushUpAndPushDown) {
    sched_prog::SpPifoScheduler::Config cfg;
    cfg.policy = RankPolicy::kPrio;
    cfg.num_queues = 2;
    sched_prog::SpPifoScheduler sched(cfg);
    const auto high = sched.add_flow(10);  // rank 10
    const auto mid = sched.add_flow(5);    // rank 5
    const auto low = sched.add_flow(2);    // rank 2
    // Rank 10 lands in the bottom queue (bound 0 -> 10); rank 5
    // undercuts it and push-ups into the top queue (bound 0 -> 5).
    ASSERT_TRUE(sched.enqueue(make_packet(1, high, 100, 0), 0));
    ASSERT_TRUE(sched.enqueue(make_packet(2, mid, 100, 10), 10));
    EXPECT_EQ(sched.push_ups(), 2u);
    EXPECT_EQ(sched.push_downs(), 0u);
    // Rank 2 undercuts *every* bound: push-down (all bounds drop by the
    // undershoot 3) and the packet enters the top queue behind rank 5.
    ASSERT_TRUE(sched.enqueue(make_packet(3, low, 100, 20), 20));
    EXPECT_EQ(sched.push_downs(), 1u);
    // Strict priority + FIFO: top queue serves 5 then 2 — the scheduled
    // inversion SP-PIFO trades for queue count — then the bottom's 10.
    EXPECT_EQ(sched.dequeue(30)->id, 2u);
    EXPECT_EQ(sched.dequeue(40)->id, 3u);
    EXPECT_EQ(sched.dequeue(50)->id, 1u);
}

TEST(SpPifoScheduler, RejectsTwoStagePolicies) {
    sched_prog::SpPifoScheduler::Config cfg;
    cfg.policy = RankPolicy::kWf2q;
    EXPECT_THROW(sched_prog::SpPifoScheduler{cfg}, std::invalid_argument);
}

// --------------------------------------------------- RifoScheduler

TEST(RifoScheduler, AdmissionPredicate) {
    using sched_prog::RifoScheduler;
    // Empty queue admits anything; full queue admits nothing.
    EXPECT_TRUE(RifoScheduler::admits(900, 0, 8, 0, 0));
    EXPECT_FALSE(RifoScheduler::admits(0, 8, 8, 0, 900));
    // At or below the queue minimum: always admitted.
    EXPECT_TRUE(RifoScheduler::admits(5, 4, 8, 5, 100));
    // Inside the lower free-fraction of the range: (rank-min)*cap vs
    // (max-min)*free — rank 30, range [0,100], 4/8 free: 30*8=240 <=
    // 100*4=400 admits; rank 60: 480 > 400 rejects.
    EXPECT_TRUE(RifoScheduler::admits(30, 4, 8, 0, 100));
    EXPECT_FALSE(RifoScheduler::admits(60, 4, 8, 0, 100));
}

TEST(RifoScheduler, ShedsHighRanksUnderPressure) {
    sched_prog::RifoScheduler::Config cfg;
    cfg.policy = RankPolicy::kPrio;
    cfg.fifo_capacity = 4;
    sched_prog::RifoScheduler sched(cfg);
    const auto urgent = sched.add_flow(1);
    const auto bulk = sched.add_flow(1000);
    net::TimeNs now = 0;
    std::uint64_t id = 1;
    // An empty queue admits anything, and ranks at or below the queue
    // minimum always enter.
    ASSERT_TRUE(sched.enqueue(make_packet(id++, bulk, 100, now), now));
    ASSERT_TRUE(sched.enqueue(make_packet(id++, urgent, 100, now), now));
    ASSERT_TRUE(sched.enqueue(make_packet(id++, urgent, 100, now), now));
    // 3/4 full with rank range [1, 1000]: another rank-1000 packet falls
    // outside the lower free-fraction of the range — shed.
    EXPECT_FALSE(sched.enqueue(make_packet(id++, bulk, 100, now), now));
    EXPECT_EQ(sched.rank_drops(), 1u);
    EXPECT_TRUE(sched.enqueue(make_packet(id++, urgent, 100, now), now));
    // Service stays strictly FIFO regardless of rank.
    EXPECT_EQ(sched.dequeue(now)->id, 1u);
    EXPECT_EQ(sched.dequeue(now)->id, 2u);
    EXPECT_EQ(sched.dequeue(now)->id, 3u);
}

// --------------------------------------------------- hierarchy

std::unique_ptr<scheduler::Scheduler> make_fifo_child() {
    return std::make_unique<scheduler::FifoScheduler>();
}

TEST(HierScheduler, StrictPriorityProtectsTheEfClass) {
    sched_prog::HierScheduler hier;
    sched_prog::HierScheduler::ClassConfig ef;
    ef.priority = 0;
    ef.sharing = sched_prog::HierScheduler::Sharing::kWfq;
    sched_prog::HierScheduler::ClassConfig be;
    be.priority = 1;
    be.sharing = sched_prog::HierScheduler::Sharing::kWfq;
    const unsigned ef_cls = hier.add_class(ef, make_fifo_child());
    const unsigned be_cls = hier.add_class(be, make_fifo_child());
    const auto ef_flow = hier.add_flow_in_class(ef_cls, 1);
    const auto be_flow = hier.add_flow_in_class(be_cls, 1);

    net::TimeNs now = 0;
    std::uint64_t id = 1;
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(hier.enqueue(make_packet(id++, be_flow, 500, now), now));
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(hier.enqueue(make_packet(id++, ef_flow, 200, now), now));
    // All EF packets leave before any best-effort one, and the returned
    // flow ids are the *global* ids the driver registered.
    for (int i = 0; i < 3; ++i) {
        const auto pkt = hier.dequeue(now);
        ASSERT_TRUE(pkt.has_value());
        EXPECT_EQ(pkt->flow, ef_flow);
    }
    for (int i = 0; i < 5; ++i) {
        const auto pkt = hier.dequeue(now);
        ASSERT_TRUE(pkt.has_value());
        EXPECT_EQ(pkt->flow, be_flow);
    }
    EXPECT_FALSE(hier.has_packets());
}

TEST(HierScheduler, DwrrSharesFollowQuanta) {
    sched_prog::HierScheduler hier;
    sched_prog::HierScheduler::ClassConfig big;
    big.priority = 1;
    big.quantum_bytes = 3000;
    sched_prog::HierScheduler::ClassConfig small;
    small.priority = 1;
    small.quantum_bytes = 1000;
    const unsigned big_cls = hier.add_class(big, make_fifo_child());
    const unsigned small_cls = hier.add_class(small, make_fifo_child());
    const auto big_flow = hier.add_flow_in_class(big_cls, 1);
    const auto small_flow = hier.add_flow_in_class(small_cls, 1);

    net::TimeNs now = 0;
    std::uint64_t id = 1;
    for (int i = 0; i < 300; ++i) {
        ASSERT_TRUE(hier.enqueue(make_packet(id++, big_flow, 500, now), now));
        ASSERT_TRUE(hier.enqueue(make_packet(id++, small_flow, 500, now), now));
    }
    std::uint64_t big_bytes = 0, small_bytes = 0;
    for (int i = 0; i < 400; ++i) {
        const auto pkt = hier.dequeue(now);
        ASSERT_TRUE(pkt.has_value());
        (pkt->flow == big_flow ? big_bytes : small_bytes) += pkt->size_bytes;
    }
    // Both backlogged throughout: service ratio ~= quantum ratio 3:1.
    const double ratio = static_cast<double>(big_bytes) /
                         static_cast<double>(small_bytes);
    EXPECT_NEAR(ratio, 3.0, 0.35) << big_bytes << " vs " << small_bytes;
}

TEST(HierScheduler, ClassWfqSharesFollowWeights) {
    sched_prog::HierScheduler hier;
    sched_prog::HierScheduler::ClassConfig gold;
    gold.priority = 1;
    gold.weight = 3;
    gold.sharing = sched_prog::HierScheduler::Sharing::kWfq;
    sched_prog::HierScheduler::ClassConfig bronze = gold;
    bronze.weight = 1;
    const unsigned gold_cls = hier.add_class(gold, make_fifo_child());
    const unsigned bronze_cls = hier.add_class(bronze, make_fifo_child());
    const auto gold_flow = hier.add_flow_in_class(gold_cls, 1);
    const auto bronze_flow = hier.add_flow_in_class(bronze_cls, 1);

    net::TimeNs now = 0;
    std::uint64_t id = 1;
    for (int i = 0; i < 300; ++i) {
        ASSERT_TRUE(hier.enqueue(make_packet(id++, gold_flow, 500, now), now));
        ASSERT_TRUE(hier.enqueue(make_packet(id++, bronze_flow, 500, now), now));
    }
    std::uint64_t gold_bytes = 0, bronze_bytes = 0;
    for (int i = 0; i < 400; ++i) {
        const auto pkt = hier.dequeue(now);
        ASSERT_TRUE(pkt.has_value());
        (pkt->flow == gold_flow ? gold_bytes : bronze_bytes) += pkt->size_bytes;
    }
    const double ratio = static_cast<double>(gold_bytes) /
                         static_cast<double>(bronze_bytes);
    EXPECT_NEAR(ratio, 3.0, 0.35) << gold_bytes << " vs " << bronze_bytes;
}

TEST(HierScheduler, RoutedAddFlowRoundRobinsOverClasses) {
    sched_prog::HierScheduler hier;
    sched_prog::HierScheduler::ClassConfig c;
    c.priority = 1;
    const unsigned c0 = hier.add_class(c, make_fifo_child());
    (void)hier.add_class(c, make_fifo_child());
    const auto f0 = hier.add_flow(1);
    const auto f1 = hier.add_flow(1);
    const auto f2 = hier.add_flow(1);
    EXPECT_EQ(f0, 0u);
    EXPECT_EQ(f1, 1u);
    EXPECT_EQ(f2, 2u);
    // f0 and f2 share class 0; the child saw two local flows.
    ASSERT_TRUE(hier.enqueue(make_packet(1, f2, 100, 0), 0));
    const auto pkt = hier.dequeue(0);
    ASSERT_TRUE(pkt.has_value());
    EXPECT_EQ(pkt->flow, f2);
    (void)c0;
}

// ------------------------- class-based queueing as DWRR over DRR
//
// CBQ (Floyd & Jacobson [4]), "a hierarchical approach to DRR" (§I-B), is
// a kDwrr level whose classes hold DrrScheduler children: bandwidth is
// shared class-first (link sharing), then per flow. DRR's peek_size lets
// the parent budget bytes; a class of weight w gets quantum 1500 B × w.

sched_prog::HierScheduler::ClassConfig dwrr_class(std::uint32_t quantum_bytes) {
    sched_prog::HierScheduler::ClassConfig c;
    c.quantum_bytes = quantum_bytes;
    return c;
}

std::unique_ptr<scheduler::Scheduler> make_drr_child() {
    return std::make_unique<scheduler::DrrScheduler>();
}

TEST(HierScheduler, ServesAndDrainsOverDrrChildren) {
    sched_prog::HierScheduler hier;
    const unsigned cls = hier.add_class(dwrr_class(1500), make_drr_child());
    const auto f = hier.add_flow_in_class(cls, 1);
    ASSERT_TRUE(hier.enqueue(make_packet(1, f, 100, 0), 0));
    ASSERT_TRUE(hier.enqueue(make_packet(2, f, 100, 0), 0));
    EXPECT_EQ(hier.queued_packets(), 2u);
    EXPECT_EQ(hier.dequeue(0)->id, 1u);
    EXPECT_EQ(hier.dequeue(0)->id, 2u);
    EXPECT_FALSE(hier.dequeue(0).has_value());
    EXPECT_FALSE(hier.has_packets());
}

TEST(HierScheduler, ClassSharesSplitTheLink) {
    // Class A (weight 3) holds two equal flows; class B (weight 1) holds
    // one. Expect A:B = 3:1 and the two A flows equal.
    sched_prog::HierScheduler hier;
    const unsigned ca = hier.add_class(dwrr_class(3 * 1500), make_drr_child());
    const unsigned cb = hier.add_class(dwrr_class(1500), make_drr_child());
    hier.add_flow_in_class(ca, 1);
    hier.add_flow_in_class(ca, 1);
    hier.add_flow_in_class(cb, 1);

    // Flows are registered above (the SimDriver would re-register them),
    // so drive the event loop by hand.
    net::TimeNs t = 0;
    std::uint64_t id = 0;
    std::vector<std::uint64_t> bytes(3, 0);
    net::TimeNs link_free = 0;
    for (int step = 0; step < 30000; ++step) {
        t += 200'000;  // 0.2 ms: 3x500B offered per flow-interval vs link
        for (net::FlowId f = 0; f < 3; ++f)
            hier.enqueue(make_packet(id++, f, 500, t), t);
        while (link_free <= t && hier.has_packets()) {
            const auto pkt = hier.dequeue(std::max(t, link_free));
            if (!pkt) break;
            bytes[pkt->flow] += pkt->size_bytes;
            link_free = std::max(t, link_free) +
                        net::transmission_ns(pkt->size_bytes, 10'000'000);
        }
        if (hier.queued_packets() > 3000) break;  // bounded memory for the test
    }
    const double a_total = static_cast<double>(bytes[0] + bytes[1]);
    EXPECT_NEAR(a_total / static_cast<double>(bytes[2]), 3.0, 0.3);
    EXPECT_NEAR(static_cast<double>(bytes[0]) / static_cast<double>(bytes[1]), 1.0,
                0.1);
}

TEST(HierScheduler, FlowWeightsSplitWithinClass) {
    // Both member flows fully backlogged: serve a window and compare
    // shares (weights only bind while a flow stays backlogged).
    sched_prog::HierScheduler hier;
    const unsigned c = hier.add_class(dwrr_class(1500), make_drr_child());
    hier.add_flow_in_class(c, 3);
    hier.add_flow_in_class(c, 1);
    std::uint64_t id = 0;
    for (int i = 0; i < 3000; ++i) {
        hier.enqueue(make_packet(id++, 0, 400, 0), 0);
        hier.enqueue(make_packet(id++, 1, 400, 0), 0);
    }
    std::vector<std::uint64_t> bytes(2, 0);
    for (int i = 0; i < 3000; ++i) {
        const auto pkt = hier.dequeue(0);
        ASSERT_TRUE(pkt.has_value());
        bytes[pkt->flow] += pkt->size_bytes;
    }
    EXPECT_NEAR(static_cast<double>(bytes[0]) / static_cast<double>(bytes[1]), 3.0,
                0.3);
}

TEST(HierScheduler, RejectsBadConfiguration) {
    sched_prog::HierScheduler hier;
    sched_prog::HierScheduler::ClassConfig zero_weight;
    zero_weight.weight = 0;
    EXPECT_THROW(hier.add_class(zero_weight, make_drr_child()), std::invalid_argument);
    EXPECT_THROW(hier.add_class(dwrr_class(0), make_drr_child()), std::invalid_argument);
    const unsigned c = hier.add_class(dwrr_class(1500), make_drr_child());
    EXPECT_THROW(hier.add_flow_in_class(99, 1), std::invalid_argument);
    EXPECT_THROW(hier.add_flow_in_class(c, 0), std::invalid_argument);
    EXPECT_THROW(scheduler::DrrScheduler(0), std::invalid_argument);
}

// ------------------------------------------------- peek_size contract

/// Every scheduler that answers peek_size. `partial`: answers only some
/// of the time (HierScheduler, when one class of the first backlogged
/// level is backlogged).
struct PeekingScheduler {
    std::function<std::unique_ptr<scheduler::Scheduler>()> make;
    bool partial = false;
};

std::vector<PeekingScheduler> peeking_schedulers() {
    using Hier = sched_prog::HierScheduler;
    std::vector<PeekingScheduler> out;
    out.push_back({[] { return std::make_unique<scheduler::FifoScheduler>(); }});
    out.push_back({[] { return std::make_unique<scheduler::DrrScheduler>(500); }});
    out.push_back({[] { return std::make_unique<scheduler::MdrrScheduler>(500); }});
    for (const auto policy : {RankPolicy::kWfq, RankPolicy::kWf2q}) {
        out.push_back({[policy] {
            sched_prog::PifoScheduler::Config cfg;
            cfg.policy = policy;
            return std::make_unique<sched_prog::PifoScheduler>(cfg, heap_factory());
        }});
    }
    out.push_back({[] {
        sched_prog::SpPifoScheduler::Config cfg;
        cfg.num_queues = 4;
        return std::make_unique<sched_prog::SpPifoScheduler>(cfg);
    }});
    out.push_back({[] {
        sched_prog::RifoScheduler::Config cfg;
        cfg.fifo_capacity = 16;
        return std::make_unique<sched_prog::RifoScheduler>(cfg);
    }});
    out.push_back({[] {
        auto hier = std::make_unique<Hier>();
        hier->add_class(dwrr_class(3000), make_drr_child());
        hier->add_class(dwrr_class(1000), make_drr_child());
        return hier;
    }, true});
    out.push_back({[] {
        auto hier = std::make_unique<Hier>();
        Hier::ClassConfig ef;
        ef.priority = 0;
        ef.sharing = Hier::Sharing::kWfq;
        Hier::ClassConfig be = ef;
        be.priority = 1;
        hier->add_class(ef, make_fifo_child());
        hier->add_class(be, make_fifo_child());
        be.weight = 3;
        hier->add_class(be, make_fifo_child());
        return hier;
    }, true});
    return out;
}

TEST(PeekSize, NamesTheNextDequeueAndChangesNothing) {
    // Seeded random enqueue/dequeue interleavings into two twins: one
    // peeks before every dequeue, the other never peeks. The peeked size
    // must be the size of the packet served next, and both twins must
    // serve the same sequence.
    constexpr std::size_t kFlows = 6;
    for (const auto& entry : peeking_schedulers()) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            auto peeker = entry.make();
            auto plain = entry.make();
            SCOPED_TRACE(peeker->name() + " seed " + std::to_string(seed));
            for (std::size_t f = 0; f < kFlows; ++f) {
                const auto weight = static_cast<std::uint32_t>(1 + f % 3);
                peeker->add_flow(weight);
                plain->add_flow(weight);
            }
            Rng rng(seed);
            net::TimeNs now = 0;
            std::uint64_t id = 0;
            std::size_t served = 0, answered = 0;
            for (int step = 0; step < 4000; ++step) {
                now += static_cast<net::TimeNs>(rng.next_below(2000));
                if (rng.next_bool()) {
                    const net::Packet p = make_packet(
                        ++id, static_cast<net::FlowId>(rng.next_below(kFlows)),
                        static_cast<std::uint32_t>(rng.next_range(64, 1500)), now);
                    ASSERT_EQ(peeker->enqueue(p, now), plain->enqueue(p, now));
                    continue;
                }
                const std::optional<std::uint32_t> size = peeker->peek_size(now);
                const auto a = peeker->dequeue(now);
                const auto b = plain->dequeue(now);
                ASSERT_EQ(a.has_value(), b.has_value());
                if (!a) {
                    EXPECT_FALSE(size.has_value());
                    continue;
                }
                ASSERT_EQ(a->id, b->id) << "after " << served << " departures";
                ++served;
                if (!size) continue;
                ++answered;
                ASSERT_EQ(*size, a->size_bytes) << "packet " << a->id;
            }
            EXPECT_GT(served, 1000u);
            if (entry.partial) {
                EXPECT_GT(answered, 0u);
            } else {
                EXPECT_EQ(answered, served);
            }
        }
    }
}

// --------------------------------- rank-oracle lockstep differ sweep

TEST(PolicyDiffer, EveryConfigAgainstItsOracle) {
    const auto profiles = proptest::policy_profiles();
    for (const auto& cfg : proptest::standard_policy_configs()) {
        for (std::size_t pi = 0; pi < profiles.size(); ++pi) {
            Rng rng(proptest::case_seed(0xC0FFEE, pi * 131 + 7));
            const OpSeq ops = proptest::generate(rng, 300, profiles[pi]);
            const auto err = proptest::diff_policy_scheduler(ops, cfg);
            ASSERT_EQ(err, std::nullopt)
                << cfg.name << " profile " << profiles[pi].name << ": " << *err;
        }
    }
}

// ------------------------------------ corpus behaviour pins (sat. 3)

/// Replay a corpus artifact through `sched` with a RankInversionMeter
/// mirroring `policy`, using exactly the policy differ's op->packet
/// mapping; returns the meter.
ref::RankInversionMeter replay_with_meter(const OpSeq& ops,
                                          scheduler::Scheduler& sched,
                                          RankPolicy policy,
                                          std::vector<net::Packet>* served) {
    const RankConfig rc = proptest::policy_diff_rank_config();
    ref::RankInversionMeter meter(policy, rc);
    for (const std::uint32_t w : proptest::kPolicyDiffWeights) {
        sched.add_flow(w);
        meter.add_flow(w);
    }
    net::TimeNs now = 0;
    std::uint64_t next_id = 1;
    const auto serve = [&] {
        if (const auto pkt = sched.dequeue(now)) {
            meter.on_serve(*pkt, now);
            if (served) served->push_back(*pkt);
        }
    };
    for (const Op& op : ops) {
        now += 800;
        if (op.kind == OpKind::kInsert || op.kind == OpKind::kCombined) {
            const net::Packet pkt =
                proptest::policy_diff_packet(op, next_id++, now);
            meter.on_offer(pkt, now, sched.enqueue(pkt, now));
        }
        if (op.kind == OpKind::kPop || op.kind == OpKind::kCombined) serve();
    }
    while (sched.has_packets()) {
        now += 800;
        serve();
    }
    return meter;
}

OpSeq read_corpus(const char* name) {
    const OpSeq ops =
        proptest::read_ops_file(std::string(WFQS_CORPUS_DIR) + "/" + name);
    EXPECT_FALSE(ops.empty()) << name;
    return ops;
}

TEST(PolicyCorpus, SpPifoArtifactsProduceInversionsExactPifoDoesNot) {
    for (const char* name :
         {"policy-sp-pifo-boundary.ops", "policy-sp-pifo-pushdown.ops"}) {
        const OpSeq ops = read_corpus(name);

        sched_prog::SpPifoScheduler::Config sp;
        sp.policy = RankPolicy::kWfq;
        sp.rank = proptest::policy_diff_rank_config();
        sp.num_queues = 2;
        sched_prog::SpPifoScheduler approx(sp);
        const auto approx_meter =
            replay_with_meter(ops, approx, RankPolicy::kWfq, nullptr);
        EXPECT_GT(approx_meter.inversions(), 0u)
            << name << " no longer provokes SP-PIFO inversions";
        if (std::string(name) == "policy-sp-pifo-pushdown.ops") {
            EXPECT_GT(approx.push_downs(), 0u)
                << name << " no longer triggers the push-down reaction";
        }

        sched_prog::PifoScheduler::Config pc;
        pc.policy = RankPolicy::kWfq;
        pc.rank = proptest::policy_diff_rank_config();
        sched_prog::PifoScheduler exact(pc, heap_factory());
        const auto exact_meter =
            replay_with_meter(ops, exact, RankPolicy::kWfq, nullptr);
        EXPECT_EQ(exact_meter.inversions(), 0u)
            << name << " provoked inversions on the exact PIFO";
        EXPECT_EQ(exact_meter.serves(), approx_meter.serves());
    }
}

TEST(PolicyCorpus, SrptServesTheMouseBurstFirst) {
    const OpSeq ops = read_corpus("policy-srpt-starvation.ops");
    sched_prog::PifoScheduler::Config pc;
    pc.policy = RankPolicy::kSrpt;
    pc.rank = proptest::policy_diff_rank_config();
    sched_prog::PifoScheduler exact(pc, heap_factory());
    std::vector<net::Packet> served;
    const auto meter =
        replay_with_meter(ops, exact, RankPolicy::kSrpt, &served);
    EXPECT_EQ(meter.inversions(), 0u);
    // The artifact queues 12 elephant packets (flow 1) before a 3-packet
    // mouse burst (flow 2); exact SRPT serves the whole mouse burst
    // before any elephant packet.
    ASSERT_GE(served.size(), 3u);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(served[static_cast<std::size_t>(i)].flow, 2u)
            << "serve " << i << " went to the elephant";
}

TEST(PolicyCorpus, WindowOverrunIsRefusedNotThrown) {
    // The artifact's single-flow backlog outgrows a binary16 sorter's
    // 2^15 window at its last packet. WFQ must drop that one packet (not
    // throw) and serve everything it accepted. WF2Q+ sorts arrivals by
    // start rank, one packet behind the finish ranks, so the same
    // backlog still fits its start queue and nothing is dropped.
    const OpSeq ops = read_corpus("policy-wfq-window-overrun.ops");
    for (const auto& [policy, refused] :
         {std::pair{RankPolicy::kWfq, 1u}, std::pair{RankPolicy::kWf2q, 0u}}) {
        sched_prog::PifoScheduler::Config pc;
        pc.policy = policy;
        pc.rank = proptest::policy_diff_rank_config();
        sched_prog::PifoScheduler exact(pc, [] {
            baselines::QueueParams qp;
            qp.range_bits = 16;
            qp.capacity = 1024;
            return baselines::make_tag_queue(baselines::QueueKind::BinaryTree, qp);
        });
        std::vector<net::Packet> served;
        const auto meter = replay_with_meter(ops, exact, policy, &served);
        const std::string name = sched_prog::rank_policy_name(policy);
        EXPECT_EQ(exact.counters().rejected_packets, refused) << name;
        EXPECT_EQ(served.size(), ops.size() - refused) << name;
        EXPECT_EQ(meter.inversions(), 0u) << name;
    }
}

}  // namespace
}  // namespace wfqs
