// Tests for the network substrate: traffic generator statistics, packet
// helpers, and the simulation driver's event mechanics (including its
// in-run recovery from sorter faults).
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "baselines/factory.hpp"
#include "fault/errors.hpp"
#include "net/packet.hpp"
#include "net/sim_driver.hpp"
#include "net/traffic_gen.hpp"
#include "sched_prog/pifo_scheduler.hpp"
#include "scheduler/fifo.hpp"

namespace wfqs::net {
namespace {

constexpr TimeNs kSecond = 1'000'000'000;

std::vector<Arrival> collect(TrafficSource& src) {
    std::vector<Arrival> out;
    while (auto a = src.next()) out.push_back(*a);
    return out;
}

TEST(PacketHelpers, TransmissionTime) {
    EXPECT_EQ(transmission_ns(125, 1'000'000'000), 1000u);  // 1000 bits at 1 Gb/s
    EXPECT_EQ(transmission_ns(1500, 1'000'000'000), 12000u);
    EXPECT_GT(transmission_ns(1, 40'000'000'000ULL), 0u);  // rounds up, never 0
}

TEST(CbrSource, ExactRateAndSpacing) {
    CbrSource src(1'000'000, 125, 0, kSecond);  // 1 Mb/s, 1000-bit packets
    const auto arrivals = collect(src);
    EXPECT_EQ(arrivals.size(), 1000u);
    for (std::size_t i = 1; i < arrivals.size(); ++i)
        EXPECT_EQ(arrivals[i].time_ns - arrivals[i - 1].time_ns, 1'000'000u);
}

TEST(CbrSource, RespectsStartTime) {
    CbrSource src(1'000'000, 125, kSecond / 2, kSecond);
    const auto arrivals = collect(src);
    EXPECT_EQ(arrivals.front().time_ns, kSecond / 2);
    EXPECT_EQ(arrivals.size(), 500u);
}

TEST(PoissonSource, MeanRateWithinTolerance) {
    PoissonSource src(5000.0, 64, 1500, 10 * kSecond, 42);
    const auto arrivals = collect(src);
    EXPECT_NEAR(static_cast<double>(arrivals.size()), 50000.0, 1500.0);
    for (const auto& a : arrivals) {
        EXPECT_GE(a.size_bytes, 64u);
        EXPECT_LE(a.size_bytes, 1500u);
    }
}

TEST(PoissonSource, TimesMonotone) {
    PoissonSource src(1000.0, 100, 100, kSecond, 7);
    TimeNs prev = 0;
    while (auto a = src.next()) {
        EXPECT_GE(a->time_ns, prev);
        prev = a->time_ns;
    }
}

TEST(OnOffPareto, BurstsAtPeakRate) {
    OnOffParetoSource src(10'000'000, 1250, 0.01, 0.05, 1.5, 10 * kSecond, 11);
    const auto arrivals = collect(src);
    ASSERT_GT(arrivals.size(), 100u);
    // Within a burst, spacing equals the peak-rate serialization time.
    const TimeNs gap = transmission_ns(1250, 10'000'000);
    std::size_t tight_gaps = 0;
    for (std::size_t i = 1; i < arrivals.size(); ++i)
        if (arrivals[i].time_ns - arrivals[i - 1].time_ns == gap) ++tight_gaps;
    EXPECT_GT(tight_gaps, arrivals.size() / 3);
}

TEST(VoipSource, TwentyMsFramesInSpurts) {
    VoipSource src(30 * kSecond, 3);
    const auto arrivals = collect(src);
    ASSERT_GT(arrivals.size(), 100u);
    std::size_t frame_gaps = 0;
    for (std::size_t i = 1; i < arrivals.size(); ++i) {
        const TimeNs d = arrivals[i].time_ns - arrivals[i - 1].time_ns;
        if (d == 20'000'000u) ++frame_gaps;
        EXPECT_EQ(arrivals[i].size_bytes, 200u);
    }
    EXPECT_GT(frame_gaps, arrivals.size() / 2);
}

TEST(VideoSource, FragmentsRespectMtu) {
    VideoSource src(30.0, 12000, 1500, 2 * kSecond, 13);
    const auto arrivals = collect(src);
    ASSERT_GT(arrivals.size(), 50u);
    for (const auto& a : arrivals) EXPECT_LE(a.size_bytes, 1500u);
}

// ----------------------------------------- end-of-window boundaries
//
// Every source emits over the half-open window [start_ns, end_ns); an
// arrival stamped exactly end_ns must not appear (see the convention
// note at the top of net/traffic_gen.hpp).

TEST(WindowBoundary, CbrExcludesArrivalLandingExactlyOnEnd) {
    // 1 ms grid: arrivals at 0, 1ms, ..., and the one at end_ns == 5 ms
    // falls exactly on the boundary — it must be suppressed.
    CbrSource src(1'000'000, 125, 0, 5'000'000);
    const auto arrivals = collect(src);
    ASSERT_EQ(arrivals.size(), 5u);
    EXPECT_EQ(arrivals.back().time_ns, 4'000'000u);
    // Widening the window by a single nanosecond admits the boundary tick.
    CbrSource inclusive(1'000'000, 125, 0, 5'000'001);
    EXPECT_EQ(collect(inclusive).size(), 6u);
}

TEST(WindowBoundary, BackToBackCbrWindowsPartitionTime) {
    // [0,T) followed by [T,2T) must reproduce [0,2T) exactly: no boundary
    // arrival duplicated or lost at the seam.
    constexpr TimeNs kT = 7'000'000;
    CbrSource first(1'000'000, 125, 0, kT);
    CbrSource second(1'000'000, 125, kT, 2 * kT);
    CbrSource whole(1'000'000, 125, 0, 2 * kT);
    auto a = collect(first);
    const auto b = collect(second);
    a.insert(a.end(), b.begin(), b.end());
    const auto w = collect(whole);
    ASSERT_EQ(a.size(), w.size());
    for (std::size_t i = 0; i < w.size(); ++i)
        EXPECT_EQ(a[i].time_ns, w[i].time_ns);
}

TEST(WindowBoundary, RandomSourcesStayStrictlyBeforeEnd) {
    constexpr TimeNs kEnd = kSecond / 4;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        PoissonSource poisson(20000.0, 64, 1500, kEnd, seed);
        while (auto a = poisson.next()) EXPECT_LT(a->time_ns, kEnd);
        OnOffParetoSource onoff(10'000'000, 1250, 0.01, 0.02, 1.5, kEnd, seed);
        while (auto a = onoff.next()) EXPECT_LT(a->time_ns, kEnd);
        VoipSource voip(kEnd, seed);
        while (auto a = voip.next()) EXPECT_LT(a->time_ns, kEnd);
        VideoSource video(30.0, 12000, 1500, kEnd, seed);
        while (auto a = video.next()) EXPECT_LT(a->time_ns, kEnd);
    }
}

TEST(WindowBoundary, NextRangeIsInclusiveOfBothEndpoints) {
    // The sources' size draws rely on Rng::next_range being the closed
    // interval [lo, hi]; pin that contract here where the window tests
    // that depend on it live.
    Rng rng(99);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 4096; ++i) {
        const std::uint64_t v = rng.next_range(10, 13);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 13u);
        saw_lo |= (v == 10);
        saw_hi |= (v == 13);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
    // Degenerate interval: a single point returns that point.
    EXPECT_EQ(rng.next_range(42, 42), 42u);
}

TEST(Profiles, MixedProfileHasDiverseFlows) {
    auto flows = make_mixed_profile(kSecond, 1);
    EXPECT_GE(flows.size(), 5u);
    std::uint32_t min_w = ~0u, max_w = 0;
    for (auto& f : flows) {
        min_w = std::min(min_w, f.weight);
        max_w = std::max(max_w, f.weight);
    }
    EXPECT_LT(min_w, max_w);  // weights genuinely differ
}

// ------------------------------------------------------------- driver

TEST(SimDriver, ServesEverythingThroughFifo) {
    scheduler::FifoScheduler fifo;
    std::vector<FlowSpec> flows;
    flows.push_back({std::make_unique<CbrSource>(1'000'000, 125, 0, kSecond), 1});
    SimDriver driver(10'000'000);  // 10x the offered load
    const auto result = driver.run(fifo, flows);
    EXPECT_EQ(result.offered_packets, 1000u);
    EXPECT_EQ(result.records.size(), 1000u);
    EXPECT_EQ(result.dropped_packets, 0u);
}

TEST(SimDriver, DeparturesRespectLinkRate) {
    scheduler::FifoScheduler fifo;
    std::vector<FlowSpec> flows;
    // Two sources together offer 2 Mb/s into a 1 Mb/s link: the link must
    // never transmit two packets overlapping.
    flows.push_back({std::make_unique<CbrSource>(1'000'000, 125, 0, kSecond / 4), 1});
    flows.push_back({std::make_unique<CbrSource>(1'000'000, 125, 0, kSecond / 4), 1});
    SimDriver driver(1'000'000);
    const auto result = driver.run(fifo, flows);
    TimeNs prev_done = 0;
    for (const auto& r : result.records) {
        EXPECT_GE(r.service_start_ns, prev_done);
        EXPECT_EQ(r.departure_ns - r.service_start_ns,
                  transmission_ns(r.packet.size_bytes, 1'000'000));
        EXPECT_GE(r.service_start_ns, r.packet.arrival_ns);
        prev_done = r.departure_ns;
    }
}

TEST(SimDriver, WorkConservingLinkGoesIdleOnlyWhenEmpty) {
    scheduler::FifoScheduler fifo;
    std::vector<FlowSpec> flows;
    flows.push_back({std::make_unique<CbrSource>(500'000, 125, 0, kSecond), 1});
    SimDriver driver(1'000'000);  // under-loaded: every packet served alone
    const auto result = driver.run(fifo, flows);
    for (const auto& r : result.records)
        EXPECT_EQ(r.service_start_ns, r.packet.arrival_ns);  // no queueing
}

TEST(SimDriver, CountsDropsWhenBufferTiny) {
    scheduler::SharedPacketBuffer::Config tiny{1024, 64};
    scheduler::FifoScheduler fifo(tiny);
    std::vector<FlowSpec> flows;
    // Burst far beyond 16 cells of buffer at a slow link.
    flows.push_back({std::make_unique<CbrSource>(100'000'000, 1000, 0, kSecond / 100), 1});
    SimDriver driver(1'000'000);
    const auto result = driver.run(fifo, flows);
    EXPECT_GT(result.dropped_packets, 0u);
    EXPECT_EQ(result.records.size() + result.dropped_packets, result.offered_packets);
}

// ------------------------------------------------- sorter fault recovery

/// When the queues a scheduler builds fault: the Nth insert and the Nth
/// pop_min across all of them (0 = never).
struct FaultPlan {
    std::uint64_t insert_fault_at = 0;
    std::uint64_t pop_fault_at = 0;
};

/// A binary heap that throws fault::FaultError, before changing anything,
/// on the ops its shared plan names; recover() always succeeds.
class FaultyQueue final : public baselines::TagQueue {
public:
    explicit FaultyQueue(FaultPlan& plan)
        : plan_(plan), inner_(baselines::make_tag_queue(baselines::QueueKind::Heap)) {}

    void insert(std::uint64_t tag, std::uint32_t payload) override {
        if (plan_.insert_fault_at != 0 && --plan_.insert_fault_at == 0)
            throw fault::FaultError("injected insert fault");
        inner_->insert(tag, payload);
    }
    std::optional<baselines::QueueEntry> pop_min() override {
        if (plan_.pop_fault_at != 0 && --plan_.pop_fault_at == 0)
            throw fault::FaultError("injected pop fault");
        return inner_->pop_min();
    }
    std::optional<baselines::QueueEntry> peek_min() override { return inner_->peek_min(); }
    std::size_t size() const override { return inner_->size(); }
    std::string name() const override { return "faulty " + inner_->name(); }
    std::string model() const override { return inner_->model(); }
    std::string complexity() const override { return inner_->complexity(); }
    bool recover() override { return true; }

private:
    FaultPlan& plan_;
    std::unique_ptr<baselines::TagQueue> inner_;
};

TEST(SimDriver, SorterFaultsRecoverWithoutChangingTheSchedule) {
    // One insert fault and one pop fault per run, at several points of the
    // op stream (for WF2Q+ they land on either sorter, inside enqueue or
    // dequeue, mid-promotion included). SimDriver recovers and retries;
    // the schedule must equal the fault-free run's, and no buffer cell
    // may leak.
    constexpr std::uint64_t kRate = 20'000'000;
    for (const auto policy : {sched_prog::RankPolicy::kWfq, sched_prog::RankPolicy::kWf2q}) {
        const auto run = [&](FaultPlan plan) {
            sched_prog::PifoScheduler::Config cfg;
            cfg.policy = policy;
            cfg.rank.link_rate_bps = kRate;
            sched_prog::PifoScheduler sched(
                cfg, [&plan] { return std::make_unique<FaultyQueue>(plan); });
            auto flows = make_mixed_profile(kSecond / 4, 11);
            SimDriver driver(kRate);
            SimResult result = driver.run(sched, flows);
            EXPECT_EQ(sched.buffer().used_cells(), 0u) << sched.name();
            return result;
        };
        const SimResult clean = run({});
        ASSERT_GT(clean.records.size(), 100u);
        EXPECT_EQ(clean.sorter_faults, 0u);
        for (const std::uint64_t at : {1u, 2u, 3u, 40u, 41u, 300u}) {
            SCOPED_TRACE(sched_prog::rank_policy_name(policy) + " fault at op " +
                         std::to_string(at));
            const SimResult faulted = run({at, at});
            EXPECT_EQ(faulted.sorter_faults, 2u);
            EXPECT_EQ(faulted.offered_packets, clean.offered_packets);
            EXPECT_EQ(faulted.dropped_packets, clean.dropped_packets);
            EXPECT_TRUE(faulted.records == clean.records);
        }
    }
}

}  // namespace
}  // namespace wfqs::net
