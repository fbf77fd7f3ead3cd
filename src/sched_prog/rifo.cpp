#include "sched_prog/rifo.hpp"

#include "common/assert.hpp"

namespace wfqs::sched_prog {

RifoScheduler::RifoScheduler(const Config& config)
    : config_(config),
      rank_(make_rank_function(config.policy, config.rank)),
      buffer_(config.buffer) {
    WFQS_REQUIRE(config_.fifo_capacity > 0, "RIFO needs a positive capacity");
    WFQS_REQUIRE(!rank_->two_stage(),
                 "RIFO approximates single-stage rank order; eligibility-"
                 "gated policies need the exact two-sorter arrangement");
}

net::FlowId RifoScheduler::add_flow(std::uint32_t weight) {
    return rank_->add_flow(weight);
}

bool RifoScheduler::do_enqueue(const net::Packet& packet, net::TimeNs now) {
    // Rank first: the rank function sees every *offered* packet (as the
    // exact schedulers' clocks do), so admission decisions downstream
    // never desynchronize the per-flow state.
    const std::uint64_t rank = rank_->on_arrival(packet, now).rank;
    const std::uint64_t min_rank = ranks_.empty() ? 0 : *ranks_.begin();
    const std::uint64_t max_rank = ranks_.empty() ? 0 : *ranks_.rbegin();
    if (!admits(rank, fifo_.size(), config_.fifo_capacity, min_rank, max_rank)) {
        ++rank_drops_;
        return false;
    }
    const auto ref = buffer_.store(packet);
    if (!ref) return false;
    fifo_.push_back({rank, *ref, packet.size_bytes});
    ranks_.insert(rank);
    return true;
}

std::optional<net::Packet> RifoScheduler::do_dequeue(net::TimeNs now) {
    if (fifo_.empty()) return std::nullopt;
    const Entry entry = fifo_.front();
    fifo_.pop_front();
    ranks_.erase(ranks_.find(entry.rank));
    const net::Packet packet = buffer_.retrieve(entry.ref);
    rank_->on_service(packet, now);
    rank_->on_service_rank(entry.rank, now);
    return packet;
}

bool RifoScheduler::has_packets() const { return !fifo_.empty(); }

std::size_t RifoScheduler::queued_packets() const { return fifo_.size(); }

std::string RifoScheduler::name() const {
    return "RIFO-" + rank_->name() + "(" + std::to_string(config_.fifo_capacity) +
           ")";
}

std::optional<std::uint32_t> RifoScheduler::peek_size(net::TimeNs now) {
    (void)now;
    if (fifo_.empty()) return std::nullopt;
    return fifo_.front().size_bytes;
}

}  // namespace wfqs::sched_prog
