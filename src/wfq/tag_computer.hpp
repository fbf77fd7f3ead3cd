// Finishing-tag computation for the fair-queueing family.
//
// The sorter architecture is algorithm-agnostic (§II: "the tag sorting
// architecture ... can operate with any of the family of fair queueing
// algorithms that requires finishing tag timestamps to be sorted"). This
// module provides members of that family behind one interface:
//
//   WFQ    — virtual time tracks simulated GPS (Demers/Parekh-Gallager).
//   SCFQ   — self-clocked: V is the tag of the packet in service
//            (simplest hardware, looser delay bound).
//   FBFQ   — frame-based fair queueing (Stidialis & Varma [7]): the
//            virtual clock advances in frames recalibrated at frame
//            boundaries; "less complex than WFQ, but almost as fair".
//
// plus the TagQuantizer that maps fixed-point virtual finish times onto
// the sorter's W-bit tag space (rounding here is what creates the
// duplicate tag values of §III-C/D). The schedulers reach these through
// sched_prog's rank policies; WF2Q+ is the two-stage sched_prog::Wf2qRank
// over the exact GPS clock.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/fixed_point.hpp"
#include "wfq/virtual_clock.hpp"

namespace wfqs::wfq {

class TagComputer {
public:
    virtual ~TagComputer() = default;

    virtual FlowId add_flow(std::uint32_t weight) = 0;

    /// Compute the finishing tag for a packet of `size_bits` arriving on
    /// `flow` at real time `now` (non-decreasing).
    virtual Fixed on_arrival(FlowId flow, TimeNs now, std::uint32_t size_bits) = 0;

    /// Hook invoked when the scheduler starts serving a packet (needed by
    /// the self-clocked variant; default no-op).
    virtual void on_service_start(Fixed tag, TimeNs now);

    virtual Fixed virtual_time() const = 0;
    virtual std::string name() const = 0;
};

/// WFQ per the paper's scheduler: exact GPS virtual-time emulation.
class WfqTagComputer final : public TagComputer {
public:
    explicit WfqTagComputer(std::uint64_t rate_bps) : clock_(rate_bps) {}

    FlowId add_flow(std::uint32_t weight) override { return clock_.add_flow(weight); }
    Fixed on_arrival(FlowId flow, TimeNs now, std::uint32_t size_bits) override {
        return clock_.on_arrival(flow, now, size_bits);
    }
    Fixed virtual_time() const override { return clock_.virtual_time(); }
    std::string name() const override { return "WFQ"; }

    /// Access to eq. (1) and the underlying virtual clock.
    WfqVirtualTime& clock() { return clock_; }

private:
    WfqVirtualTime clock_;
};

/// SCFQ (self-clocked fair queueing): the virtual time is simply the
/// finishing tag of the packet currently in service.
class ScfqTagComputer final : public TagComputer {
public:
    explicit ScfqTagComputer(std::uint64_t /*rate_bps*/) {}

    FlowId add_flow(std::uint32_t weight) override;
    Fixed on_arrival(FlowId flow, TimeNs now, std::uint32_t size_bits) override;
    void on_service_start(Fixed tag, TimeNs now) override { v_ = tag; (void)now; }
    Fixed virtual_time() const override { return v_; }
    std::string name() const override { return "SCFQ"; }

private:
    struct Flow {
        std::uint32_t weight;
        Fixed last_finish;
    };
    Fixed v_;
    std::vector<Flow> flows_;
};

/// FBFQ (frame-based fair queueing): virtual time advances linearly with
/// real time inside a frame and is recalibrated to the smallest pending
/// start tag at every frame boundary — a cheap piecewise approximation of
/// the GPS clock.
class FbfqTagComputer final : public TagComputer {
public:
    /// `frame_bits`: amount of service per frame (default: one maximum
    /// packet, 12 kbit).
    explicit FbfqTagComputer(std::uint64_t rate_bps, std::uint32_t frame_bits = 12000);

    FlowId add_flow(std::uint32_t weight) override;
    Fixed on_arrival(FlowId flow, TimeNs now, std::uint32_t size_bits) override;
    void on_service_start(Fixed tag, TimeNs now) override;
    Fixed virtual_time() const override { return v_; }
    std::string name() const override { return "FBFQ"; }

private:
    void advance_frames(TimeNs now);

    struct Flow {
        std::uint32_t weight;
        Fixed last_finish;
    };
    std::uint64_t rate_;
    std::uint32_t frame_bits_;
    std::uint64_t total_weight_ = 0;
    Fixed v_;
    Fixed frame_floor_;      ///< service point observed this frame
    bool have_floor_ = false;
    TimeNs frame_start_ = 0;
    std::vector<Flow> flows_;
};

/// Maps fixed-point virtual finish times onto the sorter's integer tag
/// space: tag = floor(F · 2^granularity). Positive granularity keeps
/// fractional virtual-time bits; *negative* granularity makes one tag
/// step cover 2^-g virtual-time units — the knob that trades timestamp
/// precision against the tag-window span (§III-D rounding: coarser steps
/// produce more duplicate tags but let a small tag word cover a large
/// scheduling horizon, which is how a 12-bit sorter serves a deep
/// buffer).
class TagQuantizer {
public:
    explicit TagQuantizer(int granularity_bits = 0);

    std::uint64_t quantize(Fixed virtual_finish) const;

    /// Invert a quantized tag back to the virtual-time domain (the lower
    /// edge of its step).
    Fixed dequantize(std::uint64_t tag) const;

    /// The virtual-time span covered by one tag step.
    double tag_step_virtual() const;

private:
    unsigned shift_;  ///< kFracBits - granularity
};

}  // namespace wfqs::wfq
