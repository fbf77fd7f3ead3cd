// Experiment F6 — reproduces Fig. 6: "Distribution of new tag values
// moves as time increases".
//
// The paper argues that live tag values form a distribution between the
// current minimum and maximum that slides forward as time progresses,
// with VoIP-dominated traffic "weighted to the left" and a diverse mix
// producing "a classic bell curve"; the vacated root sector behind the
// minimum is invalidated and reused. This bench runs the full WFQ
// scheduler over both profiles, samples the live tag population relative
// to the window base at regular intervals, and prints the aggregated
// histograms plus the sector-recycling statistics of the cycle-accurate
// sorter.
#include <algorithm>
#include <cstdio>
#include <set>

#include "baselines/factory.hpp"

#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/tag_sorter.hpp"
#include "hw/simulation.hpp"
#include "net/sim_driver.hpp"
#include "net/traffic_gen.hpp"
#include "obs/bench_io.hpp"
#include "sched_prog/pifo_scheduler.hpp"
#include "wfq/tag_computer.hpp"

using namespace wfqs;

namespace {

constexpr net::TimeNs kSecond = 1'000'000'000;

// A scheduler-side probe: we re-run the tag computation on the accepted
// arrival sequence and maintain a mirror multiset of live quantized tags,
// sampling the distribution every millisecond.
void profile_distribution(const char* label, std::vector<net::FlowSpec> flows,
                          std::uint64_t rate) {
    sched_prog::PifoScheduler::Config cfg;  // WFQ at -6 tag granularity
    cfg.rank.link_rate_bps = rate;
    sched_prog::PifoScheduler sched(
        cfg, [] { return baselines::make_tag_queue(baselines::QueueKind::Heap); });
    net::SimDriver driver(rate);
    const auto result = driver.run(sched, flows);

    // Rebuild the live-tag timeline from the records: a packet's tag is
    // live from its arrival to its service start.
    wfq::WfqTagComputer computer(rate);
    for (const auto& f : flows) computer.add_flow(f.weight);
    wfq::TagQuantizer quant(-6);

    struct Event {
        net::TimeNs t;
        bool insert;
        std::uint64_t tag;
    };
    std::vector<Event> events;
    std::vector<const net::PacketRecord*> by_arrival;
    for (const auto& r : result.records) by_arrival.push_back(&r);
    std::stable_sort(by_arrival.begin(), by_arrival.end(),
                     [](auto* a, auto* b) {
                         return a->packet.arrival_ns < b->packet.arrival_ns;
                     });
    for (const auto* r : by_arrival) {
        const Fixed tag =
            computer.on_arrival(r->packet.flow, r->packet.arrival_ns,
                                r->packet.size_bits());
        events.push_back({r->packet.arrival_ns, true, quant.quantize(tag)});
        events.push_back({r->service_start_ns, false, quant.quantize(tag)});
    }
    std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
        // Same instant: the insert precedes its own zero-delay service.
        return a.t != b.t ? a.t < b.t : a.insert > b.insert;
    });

    // Fig. 6 plots the distribution of *new* tag values relative to the
    // current minimum. Two passes: find the offset spread (p99), then
    // histogram the arrivals over it.
    std::multiset<std::uint64_t> live;
    Quantiles offsets;
    std::vector<double> arrival_offsets;
    std::uint64_t first_min = 0, last_min = 0;
    bool have_first = false;
    net::TimeNs first_t = 0, last_t = 0;
    for (const auto& e : events) {
        if (e.insert) {
            // An arrival into an empty system *is* the minimum: offset 0
            // (the far-left mass of Fig. 6).
            // Fig. 6 describes the busy-period steady state, so sample
            // only while a real backlog exists. A tag can slightly
            // undercut the minimum (a fresh high-weight flow); the
            // figure's x-axis starts at the minimum, so clamp to 0.
            if (live.size() >= 2) {
                const double off = e.tag <= *live.begin()
                                       ? 0.0
                                       : static_cast<double>(e.tag - *live.begin());
                offsets.add(off);
                arrival_offsets.push_back(off);
            }
            live.insert(e.tag);
        } else {
            const auto it = live.find(e.tag);
            if (it != live.end()) live.erase(it);
        }
        if (!live.empty()) {
            if (!have_first) {
                first_min = *live.begin();
                first_t = e.t;
                have_first = true;
            }
            last_min = *live.begin();
            last_t = e.t;
        }
    }
    if (offsets.count() == 0) {
        std::printf("-- %s --\n(queue never built a backlog; nothing to plot)\n\n",
                    label);
        return;
    }
    const double hi = std::max(offsets.quantile(0.99) * 1.2, 48.0);
    Histogram hist(0.0, hi, 48);
    for (const double off : arrival_offsets) hist.add(off);

    std::printf("-- %s --\n", label);
    std::printf("new-tag offset above the current minimum (range 0..%.0f steps):\n",
                hi);
    std::printf("%s", hist.ascii_bars(8).c_str());
    const double span_s = static_cast<double>(last_t - first_t) / 1e9;
    std::printf("arrivals: %llu; window base drift: %.0f steps/s forward\n\n",
                static_cast<unsigned long long>(hist.total()),
                span_s > 0 ? static_cast<double>(last_min - first_min) / span_s : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
    obs::BenchReporter reporter("fig6_tag_distribution", argc, argv);
    std::printf("== Fig. 6: tag-value distribution slides forward ==\n\n");

    // VoIP-dominant at ~70%% load: small packets, small finish offsets —
    // the paper's "distribution weighted to the left".
    {
        std::vector<net::FlowSpec> flows;
        for (int i = 0; i < 40; ++i)
            flows.push_back({std::make_unique<net::VoipSource>(
                                 4 * kSecond, reporter.seed(100 + std::uint64_t(i))),
                             8});
        profile_distribution("streaming VoIP (expected: weighted to the left)",
                             std::move(flows), 2'000'000);
    }
    // Diverse mix near saturation: CBR + video + Poisson + moderate
    // bursts — the "classic bell curve" case.
    {
        std::vector<net::FlowSpec> flows;
        flows.push_back({std::make_unique<net::CbrSource>(4'000'000, 700, 0, 4 * kSecond), 6});
        flows.push_back({std::make_unique<net::VideoSource>(30.0, 20000, 1500, 4 * kSecond,
                                                            reporter.seed(5)),
                         8});
        flows.push_back({std::make_unique<net::PoissonSource>(900.0, 200, 1400, 4 * kSecond,
                                                              reporter.seed(6)),
                         4});
        flows.push_back({std::make_unique<net::OnOffParetoSource>(
                             8'000'000, 1200, 0.05, 0.15, 1.6, 4 * kSecond,
                             reporter.seed(7)),
                         2});
        flows.push_back({std::make_unique<net::VoipSource>(4 * kSecond, reporter.seed(8)), 4});
        profile_distribution("diverse mix (expected: bell-ish curve)",
                             std::move(flows), 16'000'000);
    }

    // Sector recycling on the cycle-accurate sorter: drive it with a
    // forward-drifting tag window for many wraps of the 12-bit space.
    hw::Simulation sim;
    core::TagSorter sorter({tree::TreeGeometry::paper(), 4096, 24}, sim);
    sorter.register_metrics(reporter.registry());
    sim.register_metrics(reporter.registry());
    Rng rng(reporter.seed(3));
    sorter.insert(0, 0);
    for (int i = 0; i < 200000; ++i)
        sorter.insert_and_pop(sorter.peek_min()->tag + rng.next_below(50), 0);
    const auto& s = sorter.stats();
    std::printf("sector recycling over %llu ops (12-bit space, 16 sectors):\n",
                static_cast<unsigned long long>(s.combined_ops));
    std::printf("  sector invalidations : %llu (window wrapped the space ~%llu times)\n",
                static_cast<unsigned long long>(s.sector_invalidations),
                static_cast<unsigned long long>(s.sector_invalidations / 16));
    std::printf("  wrap fallback passes : %llu\n",
                static_cast<unsigned long long>(s.wrap_fallback_searches));
    std::printf("  marker retirements   : %llu\n",
                static_cast<unsigned long long>(s.marker_retirements));
    reporter.finish();
    return 0;
}
