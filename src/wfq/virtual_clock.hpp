// Fixed-point WFQ virtual-time tracker — the model of the paper's WFQ tag
// computation circuit (ref [8], Fig. 1 left block).
//
// Tracks the GPS virtual time V(t) with the classic iterated-deletion
// algorithm, in Q32.32 fixed point (the hardware representation feeding
// the tag quantizer). Real time is integer nanoseconds. Exposes the
// paper's eq. (1):
//
//     t_next = t + (M_min − V(t)) · Φ / r
//
// — the real time of the next scheduled departure, computed from the
// minimum time stamp M_min still in the sort/retrieve circuit. This is
// the feedback path that makes the sorter "integral to the operation of
// the entire scheduler" (§II-A).
//
// A busy flow can only go idle at its newest finish tag, so the busy set
// is an indexed min-heap keyed by each flow's last finish: one entry per
// busy flow, bounded by the flow count rather than the backlog. Flows
// with equal keys drain at the same real time (the later ones cross a
// zero virtual interval), so the tie order never shows.
#pragma once

#include <cstdint>
#include <vector>

#include "common/fixed_point.hpp"

namespace wfqs::wfq {

using FlowId = std::uint32_t;
using TimeNs = std::uint64_t;

class WfqVirtualTime {
public:
    /// `rate_bps`: output link rate shared by the flows.
    explicit WfqVirtualTime(std::uint64_t rate_bps);

    FlowId add_flow(std::uint32_t weight);
    std::size_t flow_count() const { return flows_.size(); }
    std::uint32_t weight(FlowId flow) const { return flows_.at(flow).weight; }

    /// Advance V(t) to real time `now` (must be non-decreasing).
    void advance_to(TimeNs now);

    /// Process an arrival: advances V, computes the packet's virtual
    /// start S = max(V, F_prev) and finish F = S + L/φ, and returns F.
    Fixed on_arrival(FlowId flow, TimeNs now, std::uint32_t size_bits);

    /// Virtual start of the most recent arrival (needed by WF2Q-family
    /// eligibility tests).
    Fixed last_start() const { return last_start_; }

    /// Paper eq. (1): real time at which the tag `m_min` (the smallest
    /// stamp in the sorter) departs, given the current busy set. Returns
    /// `now` when the system is idle or m_min is already past.
    TimeNs eq1_next_departure(Fixed m_min, TimeNs now);

    Fixed virtual_time() const { return v_; }
    std::uint64_t busy_weight() const { return busy_weight_; }

private:
    static constexpr std::uint32_t kIdle = ~std::uint32_t{0};
    struct Flow {
        std::uint32_t weight;
        Fixed last_finish;              ///< F of the flow's newest packet
        std::uint32_t heap_pos = kIdle;  ///< index in busy_, kIdle when idle
    };
    Fixed key(std::uint32_t pos) const { return flows_[busy_[pos]].last_finish; }
    void place(std::uint32_t pos, FlowId flow);
    void sift_up(std::uint32_t pos);
    void sift_down(std::uint32_t pos);

    std::uint64_t rate_;
    Fixed v_;
    TimeNs t_ = 0;
    std::uint64_t busy_weight_ = 0;
    Fixed last_start_;
    std::vector<Flow> flows_;
    std::vector<FlowId> busy_;  ///< min-heap of busy flows by last_finish
};

}  // namespace wfqs::wfq
