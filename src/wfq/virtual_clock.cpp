#include "wfq/virtual_clock.hpp"

#include <limits>

#include "common/assert.hpp"

namespace wfqs::wfq {
namespace {

constexpr std::uint64_t kNsPerSec = 1'000'000'000ULL;

/// ΔV for a real-time interval: dt_ns · r / (Φ · 1e9), exact in 128 bits.
Fixed dv_for(TimeNs dt_ns, std::uint64_t rate, std::uint64_t phi) {
    WFQS_ASSERT(phi > 0);
    unsigned __int128 num = static_cast<unsigned __int128>(dt_ns) * rate;
    num <<= Fixed::kFracBits;
    num /= static_cast<unsigned __int128>(phi) * kNsPerSec;
    WFQS_ASSERT_MSG(num <= std::numeric_limits<std::uint64_t>::max(),
                    "virtual time advance overflow");
    return Fixed::from_raw(static_cast<std::uint64_t>(num));
}

/// Real nanoseconds for a virtual-time interval: dv · Φ · 1e9 / r.
TimeNs ns_for(Fixed dv, std::uint64_t phi, std::uint64_t rate) {
    WFQS_ASSERT(rate > 0);
    unsigned __int128 num = static_cast<unsigned __int128>(dv.raw()) * phi;
    num *= kNsPerSec;
    num /= static_cast<unsigned __int128>(rate) << Fixed::kFracBits;
    WFQS_ASSERT_MSG(num <= std::numeric_limits<std::uint64_t>::max(),
                    "departure time overflow");
    return static_cast<TimeNs>(num);
}

}  // namespace

WfqVirtualTime::WfqVirtualTime(std::uint64_t rate_bps) : rate_(rate_bps) {
    WFQS_REQUIRE(rate_bps > 0, "link rate must be positive");
}

FlowId WfqVirtualTime::add_flow(std::uint32_t weight) {
    WFQS_REQUIRE(weight > 0, "flow weight must be positive");
    flows_.push_back(Flow{weight, Fixed{}});
    return static_cast<FlowId>(flows_.size() - 1);
}

void WfqVirtualTime::advance_to(TimeNs now) {
    WFQS_ASSERT_MSG(now >= t_, "time must be non-decreasing");
    while (!busy_.empty()) {
        Flow& f = flows_[busy_.front()];
        const TimeNs cross = t_ + ns_for(f.last_finish - v_, busy_weight_, rate_);
        if (cross > now) break;
        // The flow's backlog drains at virtual time f.last_finish.
        v_ = f.last_finish;
        t_ = cross;
        f.heap_pos = kIdle;
        WFQS_ASSERT(busy_weight_ >= f.weight);
        busy_weight_ -= f.weight;
        const FlowId last = busy_.back();
        busy_.pop_back();
        if (!busy_.empty()) {
            place(0, last);
            sift_down(0);
        }
    }
    if (busy_weight_ > 0 && now > t_) v_ += dv_for(now - t_, rate_, busy_weight_);
    t_ = now;
}

Fixed WfqVirtualTime::on_arrival(FlowId flow, TimeNs now, std::uint32_t size_bits) {
    WFQS_REQUIRE(flow < flows_.size(), "unknown flow");
    WFQS_REQUIRE(size_bits > 0, "packet must have positive size");
    advance_to(now);
    Flow& f = flows_[flow];
    // Textbook WFQ: S = max(V, F_prev). (For an idle flow F_prev ≤ V by
    // construction, so no special case is needed.)
    const Fixed start = max(v_, f.last_finish);
    const Fixed finish = start + Fixed::ratio(size_bits, f.weight);
    f.last_finish = finish;
    if (f.heap_pos == kIdle) {
        busy_weight_ += f.weight;
        busy_.push_back(flow);
        sift_up(static_cast<std::uint32_t>(busy_.size() - 1));
    } else {
        sift_down(f.heap_pos);  // a busy flow's key only grows
    }
    last_start_ = start;
    return finish;
}

TimeNs WfqVirtualTime::eq1_next_departure(Fixed m_min, TimeNs now) {
    advance_to(now);
    if (busy_weight_ == 0 || m_min <= v_) return now;
    return now + ns_for(m_min - v_, busy_weight_, rate_);
}

void WfqVirtualTime::place(std::uint32_t pos, FlowId flow) {
    busy_[pos] = flow;
    flows_[flow].heap_pos = pos;
}

void WfqVirtualTime::sift_up(std::uint32_t pos) {
    const FlowId flow = busy_[pos];
    const Fixed k = flows_[flow].last_finish;
    while (pos > 0) {
        const std::uint32_t parent = (pos - 1) / 2;
        if (!(k < key(parent))) break;
        place(pos, busy_[parent]);
        pos = parent;
    }
    place(pos, flow);
}

void WfqVirtualTime::sift_down(std::uint32_t pos) {
    const FlowId flow = busy_[pos];
    const Fixed k = flows_[flow].last_finish;
    const auto n = static_cast<std::uint32_t>(busy_.size());
    while (2 * pos + 1 < n) {
        std::uint32_t child = 2 * pos + 1;
        if (child + 1 < n && key(child + 1) < key(child)) ++child;
        if (!(key(child) < k)) break;
        place(pos, busy_[child]);
        pos = child;
    }
    place(pos, flow);
}

}  // namespace wfqs::wfq
