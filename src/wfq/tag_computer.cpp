#include "wfq/tag_computer.hpp"

#include <cmath>

#include "common/assert.hpp"

namespace wfqs::wfq {

void TagComputer::on_service_start(Fixed /*tag*/, TimeNs /*now*/) {}

// ----------------------------------------------------------------- SCFQ

FlowId ScfqTagComputer::add_flow(std::uint32_t weight) {
    WFQS_REQUIRE(weight > 0, "flow weight must be positive");
    flows_.push_back(Flow{weight, Fixed{}});
    return static_cast<FlowId>(flows_.size() - 1);
}

Fixed ScfqTagComputer::on_arrival(FlowId flow, TimeNs /*now*/,
                                  std::uint32_t size_bits) {
    WFQS_REQUIRE(flow < flows_.size(), "unknown flow");
    Flow& f = flows_[flow];
    const Fixed start = max(v_, f.last_finish);
    const Fixed finish = start + Fixed::ratio(size_bits, f.weight);
    f.last_finish = finish;
    return finish;
}

// ----------------------------------------------------------------- FBFQ

FbfqTagComputer::FbfqTagComputer(std::uint64_t rate_bps, std::uint32_t frame_bits)
    : rate_(rate_bps), frame_bits_(frame_bits) {
    WFQS_REQUIRE(rate_bps > 0, "link rate must be positive");
    WFQS_REQUIRE(frame_bits > 0, "frame must be positive");
}

FlowId FbfqTagComputer::add_flow(std::uint32_t weight) {
    WFQS_REQUIRE(weight > 0, "flow weight must be positive");
    flows_.push_back(Flow{weight, Fixed{}});
    total_weight_ += weight;
    return static_cast<FlowId>(flows_.size() - 1);
}

void FbfqTagComputer::advance_frames(TimeNs now) {
    // One frame = frame_bits of link service; real frame duration
    // frame_bits / rate. Between boundaries V advances linearly (cheap);
    // at every completed boundary it is recalibrated against the service
    // point — the tag most recently dispatched — so the linear clock can
    // never fall a whole frame behind the real schedule. This is the
    // once-per-frame resynchronisation that makes FBFQ "less complex
    // than WFQ, but almost as fair" (ref [7]).
    const TimeNs frame_ns =
        static_cast<TimeNs>(frame_bits_) * 1'000'000'000ULL / rate_;
    while (now >= frame_start_ + frame_ns) {
        frame_start_ += frame_ns;
        if (total_weight_ > 0)
            v_ += Fixed::ratio(frame_bits_, total_weight_);
        if (have_floor_ && frame_floor_ > v_) v_ = frame_floor_;
        have_floor_ = false;
    }
}

Fixed FbfqTagComputer::on_arrival(FlowId flow, TimeNs now, std::uint32_t size_bits) {
    WFQS_REQUIRE(flow < flows_.size(), "unknown flow");
    advance_frames(now);
    Flow& f = flows_[flow];
    const Fixed start = max(v_, f.last_finish);
    const Fixed finish = start + Fixed::ratio(size_bits, f.weight);
    f.last_finish = finish;
    return finish;
}

void FbfqTagComputer::on_service_start(Fixed tag, TimeNs now) {
    advance_frames(now);
    // Remember the service point; the next frame boundary floors V by it.
    if (!have_floor_ || tag > frame_floor_) {
        frame_floor_ = tag;
        have_floor_ = true;
    }
}

// ------------------------------------------------------------ quantizer

TagQuantizer::TagQuantizer(int granularity_bits)
    : shift_(static_cast<unsigned>(static_cast<int>(Fixed::kFracBits) -
                                   granularity_bits)) {
    WFQS_REQUIRE(granularity_bits <= static_cast<int>(Fixed::kFracBits) &&
                     granularity_bits > static_cast<int>(Fixed::kFracBits) - 64,
                 "granularity must keep the shift within the 64-bit word");
}

std::uint64_t TagQuantizer::quantize(Fixed virtual_finish) const {
    if (shift_ == 0) return virtual_finish.raw();
    return virtual_finish.raw() >> shift_;
}

Fixed TagQuantizer::dequantize(std::uint64_t tag) const {
    return Fixed::from_raw(tag << shift_);
}

double TagQuantizer::tag_step_virtual() const {
    return std::ldexp(1.0, static_cast<int>(shift_)) /
           std::ldexp(1.0, static_cast<int>(Fixed::kFracBits));
}

}  // namespace wfqs::wfq
