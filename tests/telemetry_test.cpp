// The continuous-telemetry layer: TimeSeries window/downsample math, the
// FlightRecorder ring and its replayable dump format, and the
// HostProfiler — its stage-time partition of the run and the live status
// file it writes for wfqs_top.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/factory.hpp"
#include "net/sim_driver.hpp"
#include "net/traffic_gen.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/timeseries.hpp"
#include "proptest/proptest.hpp"
#include "sched_prog/pifo_scheduler.hpp"

namespace wfqs {
namespace {

constexpr net::TimeNs kMs = 1'000'000;

// ---------------------------------------------------------------------------
// TimeSeries: windows

TEST(TimeSeries, CounterWindowsStoreDeltas) {
    obs::TimeSeries ts(8);
    std::uint64_t v = 0;
    ts.add_counter("ops", [&] { return v; });
    v = 10;
    ts.tick(1.0);
    v = 25;
    ts.tick(2.0);
    v = 25;
    ts.tick(3.0);
    ASSERT_EQ(ts.window_count(), 3u);
    const auto& s = ts.counter_series("ops");
    EXPECT_EQ(s, (std::vector<std::uint64_t>{10, 15, 0}));
    EXPECT_EQ(ts.times(), (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(TimeSeries, NonMonotonicCounterClampsToZeroDelta) {
    obs::TimeSeries ts(8);
    std::uint64_t v = 100;
    ts.add_counter("weird", [&] { return v; });
    ts.tick(1.0);
    v = 40;  // source reset underneath us
    ts.tick(2.0);
    const auto& s = ts.counter_series("weird");
    ASSERT_EQ(s.size(), 2u);
    EXPECT_EQ(s[1], 0u);  // clamped, not a huge wrapped delta
}

TEST(TimeSeries, GaugeWindowsStoreCloseSample) {
    obs::TimeSeries ts(8);
    double g = 0.0;
    ts.add_gauge("occupancy", [&] { return g; });
    g = 0.25;
    ts.tick(1.0);
    g = 0.75;
    ts.tick(2.0);
    EXPECT_EQ(ts.gauge_series("occupancy"), (std::vector<double>{0.25, 0.75}));
}

// ---------------------------------------------------------------------------
// TimeSeries: fixed budget via downsampling

TEST(TimeSeries, DownsampleMergesPairsAndDoublesStride) {
    obs::TimeSeries ts(4);
    std::uint64_t v = 0;
    double g = 0.0;
    ts.add_counter("c", [&] { return v; });
    ts.add_gauge("g", [&] { return g; });
    // Close 5 windows with deltas 1,2,3,4,5 and gauges 1..5. The 5th
    // close overflows budget 4: pairs merge, stride doubles.
    for (int i = 1; i <= 5; ++i) {
        v += static_cast<std::uint64_t>(i);
        g = i;
        ts.tick(i);
    }
    EXPECT_EQ(ts.stride(), 2u);
    ASSERT_EQ(ts.window_count(), 3u);
    // Counters add: (1+2), (3+4), then window 5 closed post-merge.
    EXPECT_EQ(ts.counter_series("c"), (std::vector<std::uint64_t>{3, 7, 5}));
    // Gauges average; merged windows take the later close time.
    EXPECT_EQ(ts.gauge_series("g"), (std::vector<double>{1.5, 3.5, 5.0}));
    EXPECT_EQ(ts.times(), (std::vector<double>{2.0, 4.0, 5.0}));
}

TEST(TimeSeries, LongRunsDecayButConserveTotals) {
    obs::TimeSeries ts(8);
    std::uint64_t v = 0;
    ts.add_counter("c", [&] { return v; });
    for (int i = 0; i < 1000; ++i) {
        v += 7;
        ts.tick(i);
    }
    EXPECT_LE(ts.window_count(), 8u);
    EXPECT_GT(ts.stride(), 1u);
    std::uint64_t total = 0;
    for (const std::uint64_t d : ts.counter_series("c")) total += d;
    // Ticks still inside the current (unclosed) stride window are pending,
    // so the conserved quantity is "every closed delta sums to the source
    // value at the last close".
    EXPECT_EQ(total % 7, 0u);
    EXPECT_GE(total, 7000u - 7 * ts.stride());
    EXPECT_LE(total, 7000u);
}

TEST(TimeSeries, BudgetValidation) {
    EXPECT_NO_THROW(obs::TimeSeries(2));
    EXPECT_ANY_THROW(obs::TimeSeries(1));
    EXPECT_ANY_THROW(obs::TimeSeries(3));  // must be even to merge pairs
}

// ---------------------------------------------------------------------------
// TimeSeries: histogram windows

TEST(TimeSeries, HistogramWindowsDiffTheCumulativeSource) {
    obs::CycleHistogram h(0.0, 64.0, 64);
    obs::TimeSeries ts(8);
    ts.add_histogram("lat", &h);
    h.record_cycles(4);
    h.record_cycles(4);
    ts.tick(1.0);
    h.record_cycles(10);
    ts.tick(2.0);
    const auto& s = ts.histogram_series("lat");
    ASSERT_EQ(s.size(), 2u);
    EXPECT_EQ(s[0].count, 2u);
    EXPECT_DOUBLE_EQ(s[0].sum, 8.0);
    EXPECT_DOUBLE_EQ(s[0].mean(), 4.0);
    EXPECT_EQ(s[1].count, 1u);
    EXPECT_DOUBLE_EQ(s[1].sum, 10.0);
    EXPECT_EQ(s[0].bins[4], 2u);
    EXPECT_EQ(s[1].bins[10], 1u);
}

TEST(TimeSeries, HistogramNaNLaneIsTrackedPerWindow) {
    obs::CycleHistogram h(0.0, 64.0, 64);
    obs::TimeSeries ts(8);
    ts.add_histogram("lat", &h);
    h.record(std::numeric_limits<double>::quiet_NaN());
    h.record(5.0);
    ts.tick(1.0);
    h.record(std::numeric_limits<double>::quiet_NaN());
    ts.tick(2.0);
    const auto& s = ts.histogram_series("lat");
    EXPECT_EQ(s[0].nan_rejects, 1u);
    EXPECT_EQ(s[0].count, 1u);  // NaN never pollutes the sample count
    EXPECT_EQ(s[1].nan_rejects, 1u);
    EXPECT_EQ(s[1].count, 0u);
    EXPECT_DOUBLE_EQ(s[1].mean(), 0.0);  // empty window stays finite
}

TEST(TimeSeries, QuantilesStableUnderResampling) {
    // The same skewed distribution recorded across many windows must
    // report (to ±1 bin) the same p50/p99 after the budget squeezes the
    // windows together, because HistWindow::merge adds bin counts.
    obs::CycleHistogram h(0.0, 64.0, 64);
    obs::TimeSeries wide(64), tight(4);
    wide.add_histogram("lat", &h);
    tight.add_histogram("lat", &h);
    std::uint64_t x = 1;
    for (int w = 0; w < 32; ++w) {
        for (int i = 0; i < 100; ++i) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            h.record_cycles((x >> 33) % 8 == 0 ? 40 + (x >> 13) % 8 : (x >> 13) % 8);
        }
        wide.tick(w);
        tight.tick(w);
    }
    // Flush: ticks since the last window close are pending until the
    // stride-th tick, so idle-tick both recorders past any stride.
    for (int i = 0; i < 64; ++i) {
        wide.tick(32 + i);
        tight.tick(32 + i);
    }
    // Fold each recorder's windows back into one distribution.
    const auto fold = [](const std::vector<obs::HistWindow>& windows) {
        obs::HistWindow all = windows.front();
        for (std::size_t i = 1; i < windows.size(); ++i) all.merge(windows[i]);
        return all;
    };
    const obs::HistWindow a = fold(wide.histogram_series("lat"));
    const obs::HistWindow b = fold(tight.histogram_series("lat"));
    EXPECT_EQ(a.count, b.count);
    EXPECT_DOUBLE_EQ(a.sum, b.sum);
    EXPECT_NEAR(a.quantile(0.5, 0.0, 64.0), b.quantile(0.5, 0.0, 64.0), 1.0);
    EXPECT_NEAR(a.quantile(0.99, 0.0, 64.0), b.quantile(0.99, 0.0, 64.0), 1.0);
    // And the absolute positions are sane: p50 in the dense low lobe,
    // p99 in the 40..47 tail.
    EXPECT_LT(a.quantile(0.5, 0.0, 64.0), 9.0);
    EXPECT_GT(a.quantile(0.99, 0.0, 64.0), 39.0);
}

TEST(TimeSeries, HistWindowMergeRequiresMatchingGeometry) {
    obs::HistWindow a, b;
    a.bins.assign(8, 0);
    b.bins.assign(16, 0);
    EXPECT_ANY_THROW(a.merge(b));
}

// ---------------------------------------------------------------------------
// FlightRecorder

TEST(FlightRecorder, RingKeepsTheNewestEvents) {
    obs::FlightRecorder rec(4);
    for (int i = 0; i < 10; ++i)
        rec.record(obs::FlightEventKind::kNote, i, i, 0);
    EXPECT_EQ(rec.size(), 4u);
    EXPECT_EQ(rec.total_recorded(), 10u);
    const auto events = rec.snapshot();
    ASSERT_EQ(events.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(events[i].seq, 6u + i);  // oldest first
        EXPECT_EQ(events[i].a, static_cast<std::int64_t>(6 + i));
    }
}

TEST(FlightRecorder, DumpIsAReplayableOpsFile) {
    obs::FlightRecorder rec(64);
    rec.record(obs::FlightEventKind::kInsert, 0.0, 12);
    rec.record(obs::FlightEventKind::kInsert, 1.0, -3);
    rec.record(obs::FlightEventKind::kFault, 1.5, 7);
    rec.record(obs::FlightEventKind::kPop, 2.0);
    rec.record(obs::FlightEventKind::kCombined, 3.0, 5);
    rec.record(obs::FlightEventKind::kDivergence, 4.0, 99);
    std::ostringstream os;
    rec.dump(os, "unit test\ntwo reason lines");
    const std::string text = os.str();
    EXPECT_NE(text.find("# wfqs-ops v1"), std::string::npos);
    EXPECT_NE(text.find("# unit test"), std::string::npos);
    EXPECT_NE(text.find("# ev 2 fault"), std::string::npos);

    // The op tail parses with the proptest grammar: annotations are
    // comments, ops survive with their deltas.
    const proptest::OpSeq ops = proptest::parse_ops(text);
    ASSERT_EQ(ops.size(), 4u);
    EXPECT_EQ(ops[0].kind, proptest::OpKind::kInsert);
    EXPECT_EQ(ops[0].delta, 12);
    EXPECT_EQ(ops[1].delta, -3);
    EXPECT_EQ(ops[2].kind, proptest::OpKind::kPop);
    EXPECT_EQ(ops[3].kind, proptest::OpKind::kCombined);
    EXPECT_EQ(ops[3].delta, 5);
}

TEST(FlightRecorder, FreeFunctionRecordsOnlyWhenInstalled) {
    obs::flight_record(obs::FlightEventKind::kNote, 0.0);  // no recorder: no-op
    {
        obs::FlightRecorder rec(8);
        obs::FlightRecorder::install(&rec);
        obs::flight_record(obs::FlightEventKind::kNote, 1.0, 42);
        EXPECT_EQ(rec.size(), 1u);
        EXPECT_EQ(rec.snapshot()[0].a, 42);
    }
    // Destructor uninstalled it; recording is a no-op again.
    EXPECT_EQ(obs::FlightRecorder::current(), nullptr);
    obs::flight_record(obs::FlightEventKind::kNote, 2.0);
}

// ---------------------------------------------------------------------------
// HostProfiler

TEST(HostProfiler, BusyShareModeAttributesSequentialSections) {
    obs::HostProfiler prof;
    prof.begin_run();
    prof.stage(obs::HostProfiler::Stage::kGen).busy_ns = 1000;
    prof.stage(obs::HostProfiler::Stage::kSched).busy_ns = 3000;
    prof.end_run();
    const auto summary = prof.summary();
    EXPECT_DOUBLE_EQ(summary[0].busy_fraction, 0.25);  // gen
    EXPECT_DOUBLE_EQ(summary[1].busy_fraction, 0.75);  // sched
    EXPECT_EQ(prof.bottleneck(), obs::HostProfiler::Stage::kSched);
}

std::uint64_t total_busy_ns(const obs::HostProfiler& prof) {
    std::uint64_t total = 0;
    for (const auto& s : prof.summary()) total += s.busy_ns;
    return total;
}

TEST(HostProfiler, TimedLapsPartitionTheRun) {
    // One iteration in kStride is timed; its laps are split over the
    // run's wall time at every window close, so Σ busy never exceeds
    // elapsed and every stage that was timed gets a share.
    using Stage = obs::HostProfiler::Stage;
    obs::HostProfiler prof(64, std::chrono::milliseconds(1));
    prof.begin_run();
    const auto spin = [](std::chrono::microseconds d) {
        const auto until = std::chrono::steady_clock::now() + d;
        while (std::chrono::steady_clock::now() < until) {
        }
    };
    std::uint64_t timed = 0;
    const std::uint64_t iterations = 8 * obs::HostProfiler::kStride;
    for (std::uint64_t i = 0; i < iterations; ++i) {
        if (!prof.begin_iteration()) continue;
        ++timed;
        spin(std::chrono::microseconds(100));
        prof.lap(Stage::kGen);
        spin(std::chrono::microseconds(300));
        prof.lap(Stage::kSched);
    }
    prof.end_run();
    EXPECT_EQ(timed, iterations / obs::HostProfiler::kStride);

    const std::uint64_t gen = prof.stage(Stage::kGen).busy_ns;
    const std::uint64_t sched = prof.stage(Stage::kSched).busy_ns;
    EXPECT_GT(gen, 0u);
    EXPECT_GT(sched, 0u);
    EXPECT_EQ(prof.stage(Stage::kEgress).busy_ns, 0u);
    EXPECT_LE(total_busy_ns(prof), prof.elapsed_seconds() * 1e9);
    // At least the 3.2 ms of spinning crossed the 1 ms period.
    EXPECT_GE(prof.series().window_count(), 2u);
    std::ostringstream os;
    obs::JsonWriter w(os);
    EXPECT_NO_THROW(prof.write_json(w));
}

TEST(HostProfiler, ExportRefusesBusyBeyondElapsed) {
    obs::HostProfiler prof;
    prof.begin_run();
    prof.end_run();
    prof.stage(obs::HostProfiler::Stage::kSched).busy_ns =
        static_cast<std::uint64_t>(prof.elapsed_seconds() * 1e9) + 1000;
    std::ostringstream os;
    obs::JsonWriter w(os);
    EXPECT_THROW(prof.write_json(w), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Driver integration: per-stage attribution

sched_prog::PifoScheduler make_wfq(std::uint64_t rate) {
    sched_prog::PifoScheduler::Config cfg;  // WFQ at -6 tag granularity
    cfg.rank.link_rate_bps = rate;
    return sched_prog::PifoScheduler(cfg, [] {
        return baselines::make_tag_queue(baselines::QueueKind::MultibitTree,
                                         {20, 1 << 16});
    });
}

net::SimResult run_profiled(obs::HostProfiler* prof) {
    const std::uint64_t rate = 50'000'000;
    auto sched = make_wfq(rate);
    auto flows = net::make_mixed_profile(50 * kMs, 13);
    net::SimDriver driver(rate);
    driver.set_profiler(prof);
    return driver.run(sched, flows);
}

TEST(DriverTelemetry, ProfiledRunFeedsProfilerAndStaysIdentical) {
    // The profiler must not perturb results: same workload with and
    // without telemetry produces identical SimResults, the profiler sees
    // every stage's item flow, and stage time is a partition of the run.
    const auto plain = run_profiled(nullptr);
    obs::HostProfiler prof(64, std::chrono::milliseconds(1));
    const auto profiled = run_profiled(&prof);
    EXPECT_TRUE(plain == profiled);

    ASSERT_GT(plain.offered_packets, 0u);
    ASSERT_EQ(plain.dropped_packets, 0u);  // every packet crosses every stage
    using Stage = obs::HostProfiler::Stage;
    EXPECT_EQ(prof.stage(Stage::kGen).items, plain.offered_packets);
    EXPECT_EQ(prof.stage(Stage::kSched).items, plain.offered_packets);
    EXPECT_EQ(prof.stage(Stage::kEgress).items, plain.offered_packets);
    EXPECT_GT(prof.elapsed_seconds(), 0.0);
    EXPECT_GT(total_busy_ns(prof), 0u);
    EXPECT_LE(total_busy_ns(prof), prof.elapsed_seconds() * 1e9);
}

TEST(DriverTelemetry, LiveFileFinalFrameMatchesTheRun) {
    // The run's end rewrites the live file, so the frame wfqs_top shows
    // last carries every item the driver moved.
    const std::string path = ::testing::TempDir() + "wfqs_telemetry_test.live";
    obs::HostProfiler prof(64, std::chrono::milliseconds(1));
    prof.set_live_path(path);
    const auto result = run_profiled(&prof);
    ASSERT_EQ(result.dropped_packets, 0u);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "# wfqs-live v1");
    int stage_rows = 0;
    bool window_t = false;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string key, name, items_key;
        std::uint64_t items = 0;
        ls >> key;
        if (key == "window_t") window_t = true;
        if (key != "stage") continue;
        ls >> name >> items_key >> items;
        EXPECT_EQ(items_key, "items");
        EXPECT_EQ(items, result.offered_packets) << name;
        ++stage_rows;
    }
    EXPECT_EQ(stage_rows, static_cast<int>(obs::HostProfiler::kStageCount));
    EXPECT_TRUE(window_t);
}

}  // namespace
}  // namespace wfqs
