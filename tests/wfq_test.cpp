// Tests for the fair-queueing substrate: GPS fluid reference, the
// fixed-point WFQ virtual clock (incl. paper eq. (1)), the SCFQ/FBFQ
// variants, and the tag quantizer.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "wfq/gps_fluid.hpp"
#include "wfq/tag_computer.hpp"
#include "wfq/virtual_clock.hpp"

namespace wfqs::wfq {
namespace {

// ------------------------------------------------------------- GPS fluid

TEST(GpsFluid, SingleFlowServesAtFullRate) {
    GpsFluidSim gps(1000.0);  // 1000 b/s
    const int f = gps.add_flow(1.0);
    gps.arrive(f, 0.0, 500.0);
    const auto deps = const_cast<GpsFluidSim&>(gps).drain();
    ASSERT_EQ(deps.size(), 1u);
    EXPECT_NEAR(deps[0].finish_time, 0.5, 1e-9);  // 500 bits at 1000 b/s
}

TEST(GpsFluid, EqualWeightsShareEqually) {
    GpsFluidSim gps(1000.0);
    const int a = gps.add_flow(1.0);
    const int b = gps.add_flow(1.0);
    gps.arrive(a, 0.0, 500.0);
    gps.arrive(b, 0.0, 500.0);
    const auto deps = gps.drain();
    ASSERT_EQ(deps.size(), 2u);
    // Both served at 500 b/s simultaneously: both finish at t = 1.0.
    EXPECT_NEAR(deps[0].finish_time, 1.0, 1e-9);
    EXPECT_NEAR(deps[1].finish_time, 1.0, 1e-9);
}

TEST(GpsFluid, WeightsSkewService) {
    GpsFluidSim gps(1000.0);
    const int heavy = gps.add_flow(3.0);
    const int light = gps.add_flow(1.0);
    gps.arrive(heavy, 0.0, 750.0);
    gps.arrive(light, 0.0, 750.0);
    const auto deps = gps.drain();
    ASSERT_EQ(deps.size(), 2u);
    // Heavy gets 750 b/s -> finishes at 1.0; then light alone:
    // light got 250 bits by t=1, remaining 500 at 1000 b/s -> 1.5.
    EXPECT_EQ(deps[0].flow, heavy);
    EXPECT_NEAR(deps[0].finish_time, 1.0, 1e-9);
    EXPECT_EQ(deps[1].flow, light);
    EXPECT_NEAR(deps[1].finish_time, 1.5, 1e-9);
}

TEST(GpsFluid, IdlePeriodThenNewBusyPeriod) {
    GpsFluidSim gps(1000.0);
    const int f = gps.add_flow(2.0);
    gps.arrive(f, 0.0, 1000.0);  // finishes at 1.0
    gps.arrive(f, 5.0, 1000.0);  // arrives after idle gap
    const auto deps = gps.drain();
    ASSERT_EQ(deps.size(), 2u);
    EXPECT_NEAR(deps[0].finish_time, 1.0, 1e-9);
    EXPECT_NEAR(deps[1].finish_time, 6.0, 1e-9);
}

TEST(GpsFluid, BacklogWithinFlowIsFifo) {
    GpsFluidSim gps(1000.0);
    const int f = gps.add_flow(1.0);
    const int p1 = gps.arrive(f, 0.0, 400.0);
    const int p2 = gps.arrive(f, 0.0, 400.0);
    EXPECT_LT(gps.virtual_finish(p1), gps.virtual_finish(p2));
    const auto deps = gps.drain();
    EXPECT_EQ(deps[0].packet, p1);
    EXPECT_EQ(deps[1].packet, p2);
}

TEST(GpsFluid, VirtualFinishOrderIsGpsFinishOrder) {
    GpsFluidSim gps(10000.0);
    Rng rng(77);
    std::vector<int> flows;
    for (int i = 0; i < 5; ++i) flows.push_back(gps.add_flow(1.0 + i));
    double t = 0.0;
    for (int i = 0; i < 200; ++i) {
        t += rng.next_exponential(0.01);
        gps.arrive(flows[rng.next_below(flows.size())], t,
                   100.0 + rng.next_below(1000));
    }
    const auto deps = gps.drain();
    for (std::size_t i = 1; i < deps.size(); ++i)
        EXPECT_LE(deps[i - 1].finish_time, deps[i].finish_time + 1e-12);
}

TEST(GpsFluid, RejectsBadInput) {
    GpsFluidSim gps(1000.0);
    EXPECT_THROW(GpsFluidSim(0.0), std::invalid_argument);
    EXPECT_THROW(gps.add_flow(0.0), std::invalid_argument);
    const int f = gps.add_flow(1.0);
    EXPECT_THROW(gps.arrive(f + 1, 0.0, 100.0), std::invalid_argument);
    EXPECT_THROW(gps.arrive(f, 0.0, 0.0), std::invalid_argument);
}

// --------------------------------------------------------- virtual clock

TEST(WfqVirtualTime, MatchesGpsFluidOnRandomTraffic) {
    // The fixed-point hardware clock must track the double-precision GPS
    // reference closely over thousands of events.
    const std::uint64_t rate = 1'000'000;  // 1 Mb/s
    WfqVirtualTime vt(rate);
    GpsFluidSim gps(static_cast<double>(rate));
    std::vector<FlowId> vf;
    std::vector<int> gf;
    for (std::uint32_t w : {1u, 2u, 5u, 10u}) {
        vf.push_back(vt.add_flow(w));
        gf.push_back(gps.add_flow(static_cast<double>(w)));
    }
    Rng rng(123);
    TimeNs t = 0;
    for (int i = 0; i < 3000; ++i) {
        t += static_cast<TimeNs>(rng.next_exponential(2e5));  // ~0.2 ms gaps
        const std::size_t fi = rng.next_below(vf.size());
        const std::uint32_t bits = 512 + static_cast<std::uint32_t>(rng.next_below(11488));
        const Fixed tag = vt.on_arrival(vf[fi], t, bits);
        const int pkt = gps.arrive(gf[fi], static_cast<double>(t) / 1e9,
                                   static_cast<double>(bits));
        EXPECT_NEAR(tag.to_double(), gps.virtual_finish(pkt),
                    1e-3 + gps.virtual_finish(pkt) * 1e-6)
            << "packet " << i;
    }
}

TEST(WfqVirtualTime, TagsNeverDecreaseBelowVirtualTime) {
    WfqVirtualTime vt(1'000'000);
    const FlowId a = vt.add_flow(1);
    const FlowId b = vt.add_flow(100);
    Rng rng(9);
    TimeNs t = 0;
    for (int i = 0; i < 500; ++i) {
        t += rng.next_below(1'000'000);
        const FlowId f = rng.next_bool() ? a : b;
        const Fixed tag = vt.on_arrival(f, t, 8000);
        EXPECT_GE(tag, vt.virtual_time());
    }
}

TEST(WfqVirtualTime, IdleSystemHoldsVirtualTime) {
    WfqVirtualTime vt(1'000'000);
    const FlowId f = vt.add_flow(1);
    vt.on_arrival(f, 0, 1000);
    vt.advance_to(1'000'000'000);  // long after the backlog drained
    const Fixed v1 = vt.virtual_time();
    vt.advance_to(2'000'000'000);
    EXPECT_EQ(vt.virtual_time(), v1);
}

TEST(WfqVirtualTime, Eq1NextDeparture) {
    // Paper eq. (1): with one busy flow of weight 1 at rate r, a stamp
    // M = V + delta departs after delta * phi / r seconds.
    const std::uint64_t rate = 1'000'000;
    WfqVirtualTime vt(rate);
    const FlowId f = vt.add_flow(1);
    vt.on_arrival(f, 0, 800'000);  // 0.8 s of backlog
    const Fixed m = vt.virtual_time() + Fixed::from_int(100'000);
    const TimeNs next = vt.eq1_next_departure(m, 0);
    EXPECT_NEAR(static_cast<double>(next), 1e8, 1e3);  // 100 ms
}

TEST(WfqVirtualTime, Eq1WithPastStampReturnsNow) {
    WfqVirtualTime vt(1'000'000);
    const FlowId f = vt.add_flow(1);
    vt.on_arrival(f, 0, 8000);
    EXPECT_EQ(vt.eq1_next_departure(Fixed::from_int(0), 500), 500u);
}

TEST(WfqVirtualTime, Eq1ScalesWithBusyWeight) {
    const std::uint64_t rate = 1'000'000;
    WfqVirtualTime one_flow(rate);
    WfqVirtualTime two_flows(rate);
    const FlowId a1 = one_flow.add_flow(1);
    const FlowId a2 = two_flows.add_flow(1);
    const FlowId b2 = two_flows.add_flow(1);
    one_flow.on_arrival(a1, 0, 800'000);
    two_flows.on_arrival(a2, 0, 800'000);
    two_flows.on_arrival(b2, 0, 800'000);
    const Fixed m1 = one_flow.virtual_time() + Fixed::from_int(1000);
    const Fixed m2 = two_flows.virtual_time() + Fixed::from_int(1000);
    // Twice the busy weight => virtual time advances half as fast => the
    // same virtual distance takes twice as long.
    EXPECT_NEAR(static_cast<double>(two_flows.eq1_next_departure(m2, 0)),
                2.0 * static_cast<double>(one_flow.eq1_next_departure(m1, 0)),
                1e3);
}

/// Lockstep reference for WfqVirtualTime's busy-flow heap: one idle event
/// per arrival in a priority queue, and events made stale by a later
/// arrival on the same flow discarded when they surface.
class StaleDiscardClock {
public:
    explicit StaleDiscardClock(std::uint64_t rate) : rate_(rate) {}
    void add_flow(std::uint32_t weight) { flows_.push_back({weight, Fixed{}, false}); }

    void advance_to(TimeNs now) {
        while (!events_.empty()) {
            const auto [at, id] = events_.top();
            Flow& f = flows_[id];
            if (!f.busy || f.last_finish != at) {
                events_.pop();
                continue;
            }
            const TimeNs cross = t_ + ns_for(at - v);
            if (cross > now) break;
            events_.pop();
            tied_drains += (at == v);
            v = at;
            t_ = cross;
            f.busy = false;
            busy_weight -= f.weight;
        }
        if (busy_weight > 0 && now > t_) {
            const auto num = (static_cast<unsigned __int128>(now - t_) * rate_
                              << Fixed::kFracBits) /
                             (static_cast<unsigned __int128>(busy_weight) * kNsPerSec);
            v += Fixed::from_raw(static_cast<std::uint64_t>(num));
        }
        t_ = now;
    }
    Fixed on_arrival(FlowId id, TimeNs now, std::uint32_t size_bits) {
        advance_to(now);
        Flow& f = flows_[id];
        last_start = max(v, f.last_finish);
        f.last_finish = last_start + Fixed::ratio(size_bits, f.weight);
        if (!f.busy) busy_weight += f.weight;
        f.busy = true;
        events_.push({f.last_finish, id});
        return f.last_finish;
    }
    TimeNs eq1_next_departure(Fixed m_min, TimeNs now) {
        advance_to(now);
        return busy_weight == 0 || m_min <= v ? now : now + ns_for(m_min - v);
    }

    Fixed v, last_start;
    std::uint64_t busy_weight = 0;
    std::uint64_t tied_drains = 0;  ///< drains at a zero virtual interval

private:
    static constexpr std::uint64_t kNsPerSec = 1'000'000'000ULL;
    struct Flow {
        std::uint32_t weight;
        Fixed last_finish;
        bool busy;
    };
    using Event = std::pair<Fixed, FlowId>;
    TimeNs ns_for(Fixed dv) const {
        return static_cast<TimeNs>(static_cast<unsigned __int128>(dv.raw()) * busy_weight *
                                   kNsPerSec /
                                   (static_cast<unsigned __int128>(rate_) << Fixed::kFracBits));
    }

    std::uint64_t rate_;
    TimeNs t_ = 0;
    std::vector<Flow> flows_;
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events_;
};

TEST(WfqVirtualTime, LockstepWithStaleDiscardReference) {
    // Random streams over 1-64 flows; every third trial forces equal
    // finish tags (one weight, one size, bursts at one ns). Long idle gaps
    // drain the system; eq. (1) queries interleave with arrivals.
    Rng rng(20261017);
    std::uint64_t tied_drains = 0;
    for (int trial = 0; trial < 300; ++trial) {
        const std::uint64_t rate = 1'000'000ULL << rng.next_below(11);
        const bool equal_tags = trial % 3 == 0;
        const std::uint64_t gap = rng.next_range(1'000, 10'000'000);
        WfqVirtualTime vt(rate);
        StaleDiscardClock ref(rate);
        const auto flows = static_cast<std::uint32_t>(rng.next_range(1, 64));
        const auto shared_weight = static_cast<std::uint32_t>(rng.next_range(1, 16));
        for (std::uint32_t i = 0; i < flows; ++i) {
            const auto w = equal_tags ? shared_weight
                                      : static_cast<std::uint32_t>(rng.next_range(1, 100));
            vt.add_flow(w);
            ref.add_flow(w);
        }
        TimeNs t = 0;
        for (int op = 0; op < 400; ++op) {
            const std::uint64_t pick = rng.next_below(100);
            if (pick < 3) {
                t += rng.next_range(1'000'000'000, 5'000'000'000);  // long idle gap
            } else if (!equal_tags || pick < 15) {
                t += rng.next_below(gap);
            }
            if (pick % 4 == 0) {
                const Fixed m = Fixed::from_raw(rng.next_below(ref.v.raw() + (1ULL << 40)));
                ASSERT_EQ(vt.eq1_next_departure(m, t), ref.eq1_next_departure(m, t));
            } else {
                const auto flow = static_cast<FlowId>(rng.next_below(flows));
                const auto bits =
                    equal_tags ? 4000u : static_cast<std::uint32_t>(rng.next_range(64, 12000));
                ASSERT_EQ(vt.on_arrival(flow, t, bits), ref.on_arrival(flow, t, bits));
                ASSERT_EQ(vt.last_start(), ref.last_start);
            }
            ASSERT_EQ(vt.virtual_time(), ref.v) << "trial " << trial << " op " << op;
            ASSERT_EQ(vt.busy_weight(), ref.busy_weight) << "trial " << trial << " op " << op;
        }
        tied_drains += ref.tied_drains;
    }
    EXPECT_GT(tied_drains, 100u);  // the tie path was exercised
}

// ----------------------------------------------------------- tag family

/// One of each TagComputer, with the per-computer seed the monotonicity
/// sweep uses.
std::vector<std::pair<std::uint64_t, std::unique_ptr<TagComputer>>> tag_computers() {
    std::vector<std::pair<std::uint64_t, std::unique_ptr<TagComputer>>> v;
    v.emplace_back(1, std::make_unique<WfqTagComputer>(1'000'000));
    v.emplace_back(3, std::make_unique<ScfqTagComputer>(1'000'000));
    v.emplace_back(4, std::make_unique<FbfqTagComputer>(1'000'000));
    return v;
}

TEST(TagComputers, AllProduceMonotoneTagsPerFlow) {
    for (auto& [seed, tc] : tag_computers()) {
        const FlowId f = tc->add_flow(3);
        Fixed prev;
        TimeNs t = 0;
        Rng rng(seed);
        for (int i = 0; i < 200; ++i) {
            t += rng.next_below(100'000);
            const Fixed tag = tc->on_arrival(f, t, 8000);
            EXPECT_GT(tag, prev) << tc->name();
            prev = tag;
        }
    }
}

TEST(TagComputers, WeightScalesServiceInterval) {
    for (auto& [seed, tc] : tag_computers()) {
        const FlowId light = tc->add_flow(1);
        const FlowId heavy = tc->add_flow(10);
        // Back-to-back packets on each flow at t=0: the finish-tag spacing
        // within a flow is L/phi.
        const Fixed l1 = tc->on_arrival(light, 0, 1000);
        const Fixed l2 = tc->on_arrival(light, 0, 1000);
        const Fixed h1 = tc->on_arrival(heavy, 0, 1000);
        const Fixed h2 = tc->on_arrival(heavy, 0, 1000);
        EXPECT_NEAR((l2 - l1).to_double(), 1000.0, 1e-6) << tc->name();
        EXPECT_NEAR((h2 - h1).to_double(), 100.0, 1e-6) << tc->name();
    }
}

TEST(Scfq, VirtualTimeFollowsServiceTag) {
    ScfqTagComputer scfq(1'000'000);
    const FlowId f = scfq.add_flow(1);
    const Fixed t1 = scfq.on_arrival(f, 0, 1000);
    scfq.on_service_start(t1, 10);
    EXPECT_EQ(scfq.virtual_time(), t1);
    // A new arrival on another flow starts from the service tag.
    const FlowId g = scfq.add_flow(1);
    const Fixed t2 = scfq.on_arrival(g, 20, 1000);
    EXPECT_EQ(t2, t1 + Fixed::from_int(1000));
}

TEST(Fbfq, VirtualTimeAdvancesInFrames) {
    // 12000-bit frames at 1 Mb/s = 12 ms per frame; one flow, weight 1:
    // V advances by 12000/1 per frame boundary.
    FbfqTagComputer fbfq(1'000'000);
    const FlowId f = fbfq.add_flow(1);
    fbfq.on_arrival(f, 0, 1000);
    EXPECT_EQ(fbfq.virtual_time(), Fixed::from_int(0));
    fbfq.on_service_start(Fixed{}, 11'999'999);  // still inside frame 0
    EXPECT_EQ(fbfq.virtual_time(), Fixed::from_int(0));
    fbfq.on_service_start(Fixed{}, 12'000'000);  // frame boundary
    EXPECT_EQ(fbfq.virtual_time(), Fixed::from_int(12000));
}

TEST(Fbfq, RecalibratesToTheServicePoint) {
    // The linear clock lags when only part of the weight is busy; the
    // frame boundary floors V by the tag most recently dispatched so the
    // lag is bounded by one frame.
    FbfqTagComputer fbfq(1'000'000);
    const FlowId a = fbfq.add_flow(1);
    fbfq.add_flow(9);  // mostly idle weight drags the linear clock
    fbfq.on_arrival(a, 0, 10000);
    // Service reaches tag 10000 while the linear clock has crawled to
    // 12000/10 per frame.
    fbfq.on_service_start(Fixed::from_int(10000), 11'000'000);
    EXPECT_LT(fbfq.virtual_time(), Fixed::from_int(10000));
    fbfq.on_service_start(Fixed::from_int(10000), 12'000'000);  // boundary
    EXPECT_GE(fbfq.virtual_time(), Fixed::from_int(10000));
}

TEST(Fbfq, FairnessCloseToWfqUnderSaturation) {
    // §I-B / ref [7]: FBFQ is "less complex than WFQ, but is almost as
    // fair". Finishing tags of two backlogged flows maintain the weight
    // ratio under both clocks.
    FbfqTagComputer fbfq(1'000'000);
    WfqTagComputer wfq(1'000'000);
    const FlowId fa = fbfq.add_flow(3), fb = fbfq.add_flow(1);
    const FlowId wa = wfq.add_flow(3), wb = wfq.add_flow(1);
    Fixed fb_last, wb_last, fa_last, wa_last;
    for (int i = 0; i < 200; ++i) {
        const TimeNs t = static_cast<TimeNs>(i) * 2'000'000;
        fa_last = fbfq.on_arrival(fa, t, 1500);
        fb_last = fbfq.on_arrival(fb, t, 500);
        wa_last = wfq.on_arrival(wa, t, 1500);
        wb_last = wfq.on_arrival(wb, t, 500);
    }
    // Per-flow finish-tag growth (= inverse service share) agrees within
    // a few percent between the two clocks.
    EXPECT_NEAR(fa_last.to_double() / wa_last.to_double(), 1.0, 0.05);
    EXPECT_NEAR(fb_last.to_double() / wb_last.to_double(), 1.0, 0.05);
}

TEST(Fbfq, RejectsBadConfig) {
    EXPECT_THROW(FbfqTagComputer(0), std::invalid_argument);
    EXPECT_THROW(FbfqTagComputer(1'000'000, 0), std::invalid_argument);
}

// ------------------------------------------------------------ quantizer

TEST(TagQuantizer, ZeroGranularityTruncatesToInteger) {
    TagQuantizer q(0);
    EXPECT_EQ(q.quantize(Fixed::from_double(5.9)), 5u);
    EXPECT_EQ(q.quantize(Fixed::from_int(7)), 7u);
}

TEST(TagQuantizer, GranularityAddsFractionalBits) {
    TagQuantizer q(2);  // quarter steps
    EXPECT_EQ(q.quantize(Fixed::from_double(1.30)), 5u);  // 1.25 -> 5 quarters
    EXPECT_DOUBLE_EQ(q.tag_step_virtual(), 0.25);
}

TEST(TagQuantizer, CoarseQuantizationCreatesDuplicates) {
    TagQuantizer coarse(0);
    TagQuantizer fine(8);
    const Fixed a = Fixed::from_double(3.1);
    const Fixed b = Fixed::from_double(3.7);
    EXPECT_EQ(coarse.quantize(a), coarse.quantize(b));
    EXPECT_NE(fine.quantize(a), fine.quantize(b));
}

TEST(TagQuantizer, RejectsExcessGranularity) {
    EXPECT_THROW(TagQuantizer(33), std::invalid_argument);
}

TEST(TagQuantizer, PreservesOrder) {
    TagQuantizer q(4);
    Rng rng(31);
    Fixed prev;
    std::uint64_t prev_q = 0;
    for (int i = 0; i < 1000; ++i) {
        const Fixed v = prev + Fixed::from_raw(rng.next_below(1'000'000'000));
        EXPECT_GE(q.quantize(v), prev_q);
        prev_q = q.quantize(v);
        prev = v;
    }
}

}  // namespace
}  // namespace wfqs::wfq
