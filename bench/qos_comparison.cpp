// Experiment P2 — the motivation of §I-B: fair queueing provides delay
// bounds that round robin and FIFO cannot.
//
// All schedulers run identical VoIP-heavy traffic (4 voice flows against
// 6 heavy bursty Pareto flows) through the same 20 Mb/s link. Reported per
// scheduler: worst VoIP p99/max delay, the GPS comparison (how far the
// schedule lags the fluid ideal vs the one-packet bound), and
// weight-normalised fairness. The shape from the paper: WFQ keeps VoIP
// within the GPS bound; WRR/DRR give fair *bandwidth* but much weaker
// delay; FIFO collapses entirely; MDRR protects VoIP only via strict
// priority (no isolation between data flows).
#include <cstdio>
#include <memory>

#include "analysis/delay_stats.hpp"
#include "analysis/fairness.hpp"
#include "baselines/factory.hpp"
#include "common/table.hpp"
#include "net/sim_driver.hpp"
#include "net/traffic_gen.hpp"
#include "obs/bench_io.hpp"
#include "sched_prog/pifo_scheduler.hpp"
#include "scheduler/fifo.hpp"
#include "scheduler/round_robin.hpp"

using namespace wfqs;

namespace {

constexpr net::TimeNs kSecond = 1'000'000'000;
constexpr std::uint64_t kRate = 20'000'000;

struct Row {
    std::string name;
    double voip_p99_us;
    double voip_max_us;
    double worst_lag_ms;
    double within_bound;
    double jain;
};

constexpr std::size_t kVoipFlows = 4;
constexpr std::size_t kCrossFlows = 6;

std::vector<net::FlowSpec> make_workload(std::uint64_t seed_shift) {
    // 4 VoIP flows (weight 8) against 6 heavy on-off Pareto flows
    // (weight 1) that keep the link saturated: the adversarial case for
    // round robin, whose per-round latency grows with the number of
    // backlogged queues and their packet sizes.
    std::vector<net::FlowSpec> flows;
    for (std::size_t i = 0; i < kVoipFlows; ++i)
        flows.push_back({std::make_unique<net::VoipSource>(2 * kSecond,
                                                           seed_shift + 40 + i),
                         8});
    for (std::size_t i = 0; i < kCrossFlows; ++i)
        flows.push_back({std::make_unique<net::OnOffParetoSource>(
                             20'000'000, 1500, 0.2, 0.1, 1.5, 2 * kSecond,
                             seed_shift + 70 + i),
                         1});
    return flows;
}

Row evaluate(scheduler::Scheduler& sched, obs::MetricsRegistry& reg,
             std::uint64_t seed_shift) {
    auto flows = make_workload(seed_shift);
    std::vector<std::uint32_t> weights;
    for (const auto& f : flows) weights.push_back(f.weight);
    net::SimDriver driver(kRate);
    const auto result = driver.run(sched, flows);

    // Copy the boundary counters out — the scheduler dies with this scope,
    // so views would dangle; owned metrics snapshot the values instead.
    const auto& c = sched.counters();
    const std::string base = "p2." + sched.name() + ".";
    reg.counter(base + "offered_packets").inc(c.offered_packets);
    reg.counter(base + "rejected_packets").inc(c.rejected_packets);
    reg.counter(base + "served_packets").inc(c.served_packets);
    reg.counter(base + "served_bytes").inc(c.served_bytes);

    const auto reports = analysis::per_flow_delays(result.records, flows.size());
    double p99 = 0.0, worst = 0.0;
    for (std::size_t f = 0; f < kVoipFlows; ++f) {
        p99 = std::max(p99, reports[f].p99_delay_us);
        worst = std::max(worst, reports[f].max_delay_us);
    }
    const auto gps = analysis::compare_with_gps(result.records, weights, kRate);
    // Fairness among the continuously backlogged cross flows only.
    auto service = analysis::normalized_service(result.records, weights, 0,
                                                2 * kSecond);
    service.erase(service.begin(), service.begin() + kVoipFlows);
    return Row{sched.name(), p99, worst, gps.worst_lag_s * 1e3,
               gps.within_bound_fraction,
               analysis::jain_fairness_index(service)};
}

}  // namespace

int main(int argc, char** argv) {
    obs::BenchReporter reporter("qos_comparison", argc, argv);
    // Every scheduler sees the identical workload; --seed N shifts all
    // traffic-source seeds together (default shift 0 keeps the
    // historical workload).
    const std::uint64_t kSeedShift = reporter.seed(0);
    // --backend model|ffs selects the sorter implementation behind the
    // fair-queueing rows (the software baselines ignore it); the choice
    // is stamped into the JSON export.
    const std::string backend_arg = obs::bench_backend(argc, argv);
    const auto backend = baselines::backend_from_name(backend_arg);
    if (!backend) {
        std::fprintf(stderr, "unknown backend '%s' (model|ffs)\n",
                     backend_arg.c_str());
        return 1;
    }
    reporter.record_backend(backend_arg);
    const baselines::QueueParams kSorterParams{20, 1 << 16, 1, *backend};
    std::printf("== P2: QoS comparison — WFQ vs round robin vs FIFO ==\n");
    std::printf("4 VoIP flows (weight 8) vs 6 saturating Pareto flows (weight 1),\n");
    std::printf("20 Mb/s link, 2 s. GPS bound = L_max/r = %.2f ms.\n\n",
                1500.0 * 8.0 / kRate * 1e3);

    TextTable table({"scheduler", "VoIP p99 (us)", "VoIP max (us)",
                     "worst GPS lag (ms)", "within bound", "Jain idx"});

    auto add = [&](Row r) {
        table.add_row({r.name, TextTable::num(r.voip_p99_us, 0),
                       TextTable::num(r.voip_max_us, 0),
                       TextTable::num(r.worst_lag_ms, 2),
                       TextTable::num(r.within_bound, 3), TextTable::num(r.jain, 3)});
        auto& reg = reporter.registry();
        const std::string base = "p2." + r.name + ".";
        reg.gauge(base + "voip_p99_us").set(r.voip_p99_us);
        reg.gauge(base + "voip_max_us").set(r.voip_max_us);
        reg.gauge(base + "worst_gps_lag_ms").set(r.worst_lag_ms);
        reg.gauge(base + "within_bound_fraction").set(r.within_bound);
        reg.gauge(base + "jain_index").set(r.jain);
    };

    // The fair-queueing rows: one rank policy each on the paper's sorter,
    // at the default -6 tag granularity.
    for (const auto policy : {sched_prog::RankPolicy::kWfq, sched_prog::RankPolicy::kScfq,
                              sched_prog::RankPolicy::kWf2q}) {
        sched_prog::PifoScheduler::Config cfg;
        cfg.policy = policy;
        cfg.rank.link_rate_bps = kRate;
        sched_prog::PifoScheduler fq(cfg, [&] {
            return baselines::make_tag_queue(baselines::QueueKind::MultibitTree,
                                             kSorterParams);
        });
        add(evaluate(fq, reporter.registry(), kSeedShift));
    }
    {
        scheduler::WrrScheduler wrr;
        add(evaluate(wrr, reporter.registry(), kSeedShift));
    }
    {
        scheduler::DrrScheduler drr;
        add(evaluate(drr, reporter.registry(), kSeedShift));
    }
    {
        scheduler::MdrrScheduler mdrr;  // flow 0 (one VoIP flow) is priority
        add(evaluate(mdrr, reporter.registry(), kSeedShift));
    }
    {
        scheduler::SrrScheduler srr;
        add(evaluate(srr, reporter.registry(), kSeedShift));
    }
    {
        scheduler::FifoScheduler fifo;
        add(evaluate(fifo, reporter.registry(), kSeedShift));
    }

    std::printf("%s\n", table.render().c_str());
    std::printf("expected shape (paper §I-B): fair queueing bounds VoIP delay near\n");
    std::printf("the GPS ideal; round robin cannot bound delay for variable-size\n");
    std::printf("packets; FIFO offers no isolation at all.\n");
    reporter.finish();
    return 0;
}
