#include "sched_prog/sp_pifo.hpp"

#include "common/assert.hpp"

namespace wfqs::sched_prog {

SpPifoScheduler::SpPifoScheduler(const Config& config)
    : config_(config),
      rank_(make_rank_function(config.policy, config.rank)),
      buffer_(config.buffer),
      queues_(std::max(1u, config.num_queues)),
      bounds_(std::max(1u, config.num_queues), 0) {
    WFQS_REQUIRE(!rank_->two_stage(),
                 "SP-PIFO approximates single-stage rank order; eligibility-"
                 "gated policies need the exact two-sorter arrangement");
}

net::FlowId SpPifoScheduler::add_flow(std::uint32_t weight) {
    return rank_->add_flow(weight);
}

bool SpPifoScheduler::do_enqueue(const net::Packet& packet, net::TimeNs now) {
    const auto ref = buffer_.store(packet);
    if (!ref) return false;
    const std::uint64_t rank = rank_->on_arrival(packet, now).rank;
    // Scan from the lowest-priority queue up: first queue whose bound the
    // rank does not undercut takes the packet (push-up).
    for (std::size_t q = queues_.size(); q-- > 0;) {
        if (rank >= bounds_[q]) {
            bounds_[q] = rank;
            queues_[q].push_back({rank, *ref, packet.size_bytes});
            ++push_ups_;
            return true;
        }
    }
    // Ranked below every bound: enqueue at the top and push every bound
    // down by the undershoot (the SP-PIFO reaction to unmappable ranks).
    const std::uint64_t cost = bounds_[0] - rank;
    for (std::uint64_t& bound : bounds_) bound -= std::min(bound, cost);
    bounds_[0] = rank;
    queues_[0].push_back({rank, *ref, packet.size_bytes});
    ++push_downs_;
    return true;
}

std::optional<net::Packet> SpPifoScheduler::do_dequeue(net::TimeNs now) {
    for (auto& queue : queues_) {
        if (queue.empty()) continue;
        const Entry entry = queue.front();
        queue.pop_front();
        const net::Packet packet = buffer_.retrieve(entry.ref);
        rank_->on_service(packet, now);
        rank_->on_service_rank(entry.rank, now);
        return packet;
    }
    return std::nullopt;
}

bool SpPifoScheduler::has_packets() const {
    for (const auto& queue : queues_)
        if (!queue.empty()) return true;
    return false;
}

std::size_t SpPifoScheduler::queued_packets() const {
    std::size_t n = 0;
    for (const auto& queue : queues_) n += queue.size();
    return n;
}

std::string SpPifoScheduler::name() const {
    return "SP-PIFO-" + rank_->name() + "(" + std::to_string(queues_.size()) +
           "q)";
}

std::optional<std::uint32_t> SpPifoScheduler::peek_size(net::TimeNs now) {
    (void)now;
    for (const auto& queue : queues_)
        if (!queue.empty()) return queue.front().size_bytes;
    return std::nullopt;
}

}  // namespace wfqs::sched_prog
