// Tests for traffic trace record/replay: round-trip fidelity, text-format
// robustness, and the property that a replayed trace drives a scheduler
// to the identical departure sequence as the live generators.
#include <gtest/gtest.h>

#include <sstream>

#include "baselines/factory.hpp"
#include "net/sim_driver.hpp"
#include "net/trace.hpp"
#include "net/traffic_gen.hpp"
#include "sched_prog/pifo_scheduler.hpp"

namespace wfqs::net {
namespace {

constexpr TimeNs kSecond = 1'000'000'000;

TEST(Trace, RecordsAllArrivalsTimeOrdered) {
    auto flows = make_mixed_profile(kSecond / 10, 3);
    const std::size_t flow_count = flows.size();
    const TrafficTrace trace = TrafficTrace::record(flows);
    EXPECT_EQ(trace.flow_count(), flow_count);
    EXPECT_GT(trace.events().size(), 100u);
    TimeNs prev = 0;
    for (const auto& e : trace.events()) {
        EXPECT_GE(e.time_ns, prev);
        prev = e.time_ns;
    }
}

TEST(Trace, SerializeParseRoundTrip) {
    auto flows = make_mixed_profile(kSecond / 20, 5);
    const TrafficTrace original = TrafficTrace::record(flows);
    std::stringstream buf;
    original.serialize(buf);
    const TrafficTrace loaded = TrafficTrace::parse(buf);
    EXPECT_EQ(loaded.weights(), original.weights());
    ASSERT_EQ(loaded.events().size(), original.events().size());
    for (std::size_t i = 0; i < loaded.events().size(); ++i)
        EXPECT_EQ(loaded.events()[i], original.events()[i]);
}

TEST(Trace, ParseRejectsMalformedInput) {
    auto expect_throw = [](const std::string& text) {
        std::stringstream buf(text);
        EXPECT_THROW(TrafficTrace::parse(buf), std::invalid_argument) << text;
    };
    expect_throw("not-a-trace 1\nweights 1\n");
    expect_throw("wfqs-trace 2\nweights 1\n");
    expect_throw("wfqs-trace 1\nweights\n");                 // no flows
    expect_throw("wfqs-trace 1\nweights 1\n100 5 64\n");     // unknown flow
    expect_throw("wfqs-trace 1\nweights 1\n100 0 0\n");      // zero size
    expect_throw("wfqs-trace 1\nweights 1\n200 0 64\n100 0 64\n");  // time order
    expect_throw("wfqs-trace 1\nweights 1\n100 0 sixty\n");  // junk field
}

TEST(Trace, ParseAcceptsEmptyEventList) {
    std::stringstream buf("wfqs-trace 1\nweights 2 3\n");
    const TrafficTrace t = TrafficTrace::parse(buf);
    EXPECT_EQ(t.flow_count(), 2u);
    EXPECT_TRUE(t.events().empty());
}

TEST(Trace, ReplaySourcesMatchPerFlowStreams) {
    auto flows = make_voip_heavy_profile(kSecond / 10, 7);
    // Re-generate the same flows twice: once to record, once to compare.
    auto flows_again = make_voip_heavy_profile(kSecond / 10, 7);
    const TrafficTrace trace = TrafficTrace::record(flows);
    auto replayed = trace.replay();
    ASSERT_EQ(replayed.size(), flows_again.size());
    for (std::size_t f = 0; f < replayed.size(); ++f) {
        while (true) {
            const auto a = replayed[f].source->next();
            const auto b = flows_again[f].source->next();
            ASSERT_EQ(a.has_value(), b.has_value()) << "flow " << f;
            if (!a) break;
            EXPECT_EQ(a->time_ns, b->time_ns);
            EXPECT_EQ(a->size_bytes, b->size_bytes);
        }
    }
}

TEST(Trace, ReplayDrivesIdenticalSchedule) {
    const std::uint64_t rate = 20'000'000;
    auto run = [&](std::vector<FlowSpec> flows) {
        sched_prog::PifoScheduler::Config cfg;  // WFQ at -6 tag granularity
        cfg.rank.link_rate_bps = rate;
        sched_prog::PifoScheduler sched(cfg, [] {
            return baselines::make_tag_queue(baselines::QueueKind::MultibitTree,
                                             {20, 1 << 16});
        });
        SimDriver driver(rate);
        return driver.run(sched, flows);
    };

    auto live_flows = make_mixed_profile(kSecond / 5, 13);
    auto to_record = make_mixed_profile(kSecond / 5, 13);
    const TrafficTrace trace = TrafficTrace::record(to_record);
    std::stringstream buf;
    trace.serialize(buf);
    const TrafficTrace reloaded = TrafficTrace::parse(buf);

    const auto live = run(std::move(live_flows));
    auto replay_flows = reloaded.replay();
    const auto replayed = run(std::move(replay_flows));

    ASSERT_EQ(live.records.size(), replayed.records.size());
    for (std::size_t i = 0; i < live.records.size(); ++i) {
        EXPECT_EQ(live.records[i].packet.id, replayed.records[i].packet.id);
        EXPECT_EQ(live.records[i].departure_ns, replayed.records[i].departure_ns);
    }
}

}  // namespace
}  // namespace wfqs::net
