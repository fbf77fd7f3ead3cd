#include "scheduler/round_robin.hpp"

#include "common/assert.hpp"
#include "common/bits.hpp"

namespace wfqs::scheduler {

// ------------------------------------------------------------------ base

PerFlowScheduler::PerFlowScheduler(const SharedPacketBuffer::Config& buffer)
    : buffer_(buffer) {}

net::FlowId PerFlowScheduler::add_flow(std::uint32_t weight) {
    WFQS_REQUIRE(weight > 0, "flow weight must be positive");
    flows_.push_back(Flow{weight, {}});
    return static_cast<net::FlowId>(flows_.size() - 1);
}

bool PerFlowScheduler::do_enqueue(const net::Packet& packet, net::TimeNs /*now*/) {
    WFQS_REQUIRE(packet.flow < flows_.size(), "unknown flow");
    const auto ref = buffer_.store(packet);
    if (!ref) return false;
    flows_[packet.flow].q.push_back(*ref);
    ++queued_;
    if (flows_[packet.flow].q.size() == 1) on_backlogged(packet.flow);
    return true;
}

std::uint32_t PerFlowScheduler::head_bytes(net::FlowId f) const {
    WFQS_ASSERT(!flows_[f].q.empty());
    return buffer_.peek(flows_[f].q.front()).size_bytes;
}

net::Packet PerFlowScheduler::serve_head(net::FlowId f) {
    WFQS_ASSERT(!flows_[f].q.empty());
    const BufferRef ref = flows_[f].q.front();
    flows_[f].q.pop_front();
    --queued_;
    return buffer_.retrieve(ref);
}

// ------------------------------------------------------------------- WRR

std::optional<net::Packet> WrrScheduler::do_dequeue(net::TimeNs /*now*/) {
    if (queued_ == 0) return std::nullopt;
    credits_.resize(flows_.size(), 0);
    // Two sweeps: first spend remaining credits, then start a new round.
    for (int sweep = 0; sweep < 2; ++sweep) {
        for (std::size_t step = 0; step < flows_.size(); ++step) {
            const std::size_t f = (cursor_ + step) % flows_.size();
            if (!flows_[f].q.empty() && credits_[f] > 0) {
                --credits_[f];
                // Stay on this flow while it has credit; else move on.
                cursor_ = credits_[f] > 0 ? f : (f + 1) % flows_.size();
                return serve_head(static_cast<net::FlowId>(f));
            }
        }
        // New round: refill every credit to the flow weight.
        for (std::size_t f = 0; f < flows_.size(); ++f) credits_[f] = flows_[f].weight;
    }
    WFQS_ASSERT_MSG(false, "WRR failed to find a backlogged flow");
    return std::nullopt;
}

// ------------------------------------------------------------------- DRR

DrrScheduler::DrrScheduler(std::uint32_t quantum_bytes,
                           const SharedPacketBuffer::Config& buffer)
    : PerFlowScheduler(buffer), quantum_(quantum_bytes) {
    WFQS_REQUIRE(quantum_bytes > 0, "DRR quantum must be positive");
}

std::optional<DeficitRing::Turn> DrrScheduler::select() {
    return ring_.select(
        [this](std::size_t f) -> std::optional<std::uint64_t> {
            if (flows_[f].q.empty()) return std::nullopt;
            return head_bytes(static_cast<net::FlowId>(f));
        },
        [this](std::size_t f) { return std::uint64_t{quantum_} * flows_[f].weight; });
}

std::optional<net::Packet> DrrScheduler::do_dequeue(net::TimeNs /*now*/) {
    const auto turn = select();
    if (!turn) return std::nullopt;
    ring_.charge(*turn);
    return serve_head(static_cast<net::FlowId>(turn->member));
}

std::optional<std::uint32_t> DrrScheduler::peek_size(net::TimeNs /*now*/) {
    const auto turn = select();
    if (!turn) return std::nullopt;
    return static_cast<std::uint32_t>(turn->cost);
}

// ------------------------------------------------------------------ MDRR

void MdrrScheduler::on_backlogged(net::FlowId f) {
    if (f != kPriorityFlow) DrrScheduler::on_backlogged(f);
}

std::optional<net::Packet> MdrrScheduler::do_dequeue(net::TimeNs now) {
    if (priority_backlogged()) return serve_head(kPriorityFlow);
    return DrrScheduler::do_dequeue(now);
}

std::optional<std::uint32_t> MdrrScheduler::peek_size(net::TimeNs now) {
    if (priority_backlogged()) return head_bytes(kPriorityFlow);
    return DrrScheduler::peek_size(now);
}

// ------------------------------------------------------------------- SRR

SrrScheduler::SrrScheduler(std::uint32_t quantum_bytes,
                           const SharedPacketBuffer::Config& buffer)
    : PerFlowScheduler(buffer), quantum_(quantum_bytes) {
    WFQS_REQUIRE(quantum_bytes > 0, "SRR quantum must be positive");
}

net::FlowId SrrScheduler::add_flow(std::uint32_t weight) {
    const net::FlowId f = PerFlowScheduler::add_flow(weight);
    const std::size_t k = static_cast<std::size_t>(highest_set(weight));  // floor(log2 w)
    if (strata_.size() <= k) strata_.resize(k + 1);
    flow_stratum_.push_back(k);
    return f;
}

void SrrScheduler::on_backlogged(net::FlowId f) {
    // A flow is in its stratum's round robin exactly while it is backlogged.
    const std::size_t k = flow_stratum_[f];
    strata_[k].push_back(f);
    ring_.activate(k);
}

std::optional<net::Packet> SrrScheduler::do_dequeue(net::TimeNs /*now*/) {
    const auto turn = ring_.select(
        [this](std::size_t k) -> std::optional<std::uint64_t> {
            if (strata_[k].empty()) return std::nullopt;
            return head_bytes(strata_[k].front());
        },
        // The stratum's service share aggregates its members: the class
        // granularity the paper criticises.
        [this](std::size_t k) {
            return (std::uint64_t{quantum_} << k) * strata_[k].size();
        });
    if (!turn) return std::nullopt;
    ring_.charge(*turn);
    // Round robin within the stratum.
    std::deque<net::FlowId>& rr = strata_[turn->member];
    const net::FlowId f = rr.front();
    rr.pop_front();
    const net::Packet pkt = serve_head(f);
    if (!flows_[f].q.empty()) rr.push_back(f);
    return pkt;
}

}  // namespace wfqs::scheduler
