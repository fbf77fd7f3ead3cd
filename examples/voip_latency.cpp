// VoIP latency study: how the choice of tag queue inside the WFQ
// scheduler affects voice delay — the paper's sorter vs the inexact
// binning technique it criticises (§II-B), plus the fair-queueing
// algorithm family (WFQ / WF2Q+ / SCFQ / FBFQ) on the same sorter.
//
//   ./build/examples/voip_latency
#include <cstdio>

#include "analysis/delay_stats.hpp"
#include "baselines/factory.hpp"
#include "common/table.hpp"
#include "net/sim_driver.hpp"
#include "net/traffic_gen.hpp"
#include "sched_prog/pifo_scheduler.hpp"

using namespace wfqs;

namespace {

constexpr net::TimeNs kSecond = 1'000'000'000;
constexpr std::uint64_t kRate = 20'000'000;
constexpr std::size_t kVoipFlows = 6;

struct Outcome {
    double p99_ms;
    double max_ms;
};

Outcome run(scheduler::Scheduler& sched) {
    std::vector<net::FlowSpec> flows;
    for (std::size_t i = 0; i < kVoipFlows; ++i)
        flows.push_back({std::make_unique<net::VoipSource>(2 * kSecond, 30 + i), 8});
    for (int i = 0; i < 5; ++i)
        flows.push_back({std::make_unique<net::OnOffParetoSource>(
                             20'000'000, 1500, 0.2, 0.1, 1.5, 2 * kSecond, 50 + i),
                         1});
    net::SimDriver driver(kRate);
    const auto result = driver.run(sched, flows);
    const auto reports = analysis::per_flow_delays(result.records, flows.size());
    Outcome out{0.0, 0.0};
    for (std::size_t f = 0; f < kVoipFlows; ++f) {
        out.p99_ms = std::max(out.p99_ms, reports[f].p99_delay_us / 1e3);
        out.max_ms = std::max(out.max_ms, reports[f].max_delay_us / 1e3);
    }
    return out;
}

}  // namespace

int main() {
    std::printf("VoIP latency: 6 voice flows (w=8) vs 5 saturating bursty flows "
                "(w=1), 20 Mb/s\n\n");
    TextTable table({"configuration", "worst VoIP p99 (ms)", "worst VoIP max (ms)"});

    struct Case {
        const char* label;
        sched_prog::RankPolicy policy;
        baselines::QueueKind queue;
    };
    using sched_prog::RankPolicy;
    const Case cases[] = {
        {"WFQ + multi-bit tree", RankPolicy::kWfq, baselines::QueueKind::MultibitTree},
        {"WF2Q+ + 2x multi-bit tree", RankPolicy::kWf2q,
         baselines::QueueKind::MultibitTree},
        {"SCFQ + multi-bit tree", RankPolicy::kScfq, baselines::QueueKind::MultibitTree},
        {"FBFQ + multi-bit tree", RankPolicy::kFbfq, baselines::QueueKind::MultibitTree},
        {"WFQ + binning (inexact)", RankPolicy::kWfq, baselines::QueueKind::Binning},
    };
    for (const auto& c : cases) {
        sched_prog::PifoScheduler::Config cfg;
        cfg.policy = c.policy;
        cfg.rank.link_rate_bps = kRate;
        sched_prog::PifoScheduler sched(
            cfg, [&] { return baselines::make_tag_queue(c.queue, {20, 1 << 16}); });
        const Outcome o = run(sched);
        table.add_row({c.label, TextTable::num(o.p99_ms, 2), TextTable::num(o.max_ms, 2)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("Exact sorting keeps voice near the GPS ideal; binning trades the\n");
    std::printf("sorted order away inside each bin and voice pays for it; SCFQ's\n");
    std::printf("looser virtual clock shows up as extra tail latency.\n");
    return 0;
}
