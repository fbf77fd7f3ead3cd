#include "sched_prog/pifo_scheduler.hpp"

#include <stdexcept>

#include "common/assert.hpp"

namespace wfqs::sched_prog {

PifoScheduler::PifoScheduler(const Config& config, QueueFactory make_queue)
    : config_(config),
      rank_(make_rank_function(config.policy, config.rank)),
      buffer_(config.buffer) {
    WFQS_REQUIRE(make_queue != nullptr, "a queue factory is required");
    primary_ = make_queue();
    WFQS_REQUIRE(primary_ != nullptr, "queue factory produced nothing");
    if (rank_->two_stage()) {
        start_queue_ = make_queue();
        WFQS_REQUIRE(start_queue_ != nullptr, "queue factory produced nothing");
    }
}

net::FlowId PifoScheduler::add_flow(std::uint32_t weight) {
    return rank_->add_flow(weight);
}

bool PifoScheduler::do_enqueue(const net::Packet& packet, net::TimeNs now) {
    std::optional<FaultedArrival> retry;
    if (faulted_ && faulted_->packet_id == packet.id) retry = faulted_;
    faulted_.reset();
    if (!retry || !retry->queued) {
        const auto ref = buffer_.store(packet);
        if (!ref) return false;
        // A rank function sees each packet once: a retry reuses the ranks.
        const RankSet ranks = retry ? retry->ranks : rank_->on_arrival(packet, now);
        try {
            if (start_queue_) {
                // Two-stage: wait in start order until eligible.
                if (*ref >= service_rank_.size()) service_rank_.resize(*ref + 1);
                service_rank_[*ref] = ranks.rank;
                start_queue_->insert(ranks.start, *ref);
            } else {
                primary_->insert(ranks.rank, *ref);
            }
        } catch (const std::invalid_argument&) {
            // The sorter's wrap window cannot hold this rank beside the live
            // ones; the sorter threw before changing anything. Drop, as RIFO
            // does, after the rank function has seen the packet.
            buffer_.retrieve(*ref);
            return false;
        } catch (...) {
            // A faulted insert must not leak the buffer cell: the retry
            // stores the packet afresh.
            buffer_.retrieve(*ref);
            faulted_ = FaultedArrival{packet.id, ranks, false};
            throw;
        }
    }
    if (start_queue_) {
        try {
            promote_eligible(now);
        } catch (...) {
            faulted_ = FaultedArrival{packet.id, {}, true};
            throw;
        }
    }
    return true;
}

bool PifoScheduler::promote_head(const baselines::QueueEntry& head) {
    if (promoted_head_ != head.payload) {
        try {
            primary_->insert(service_rank_[head.payload], head.payload);
        } catch (const std::invalid_argument&) {
            return false;
        }
        promoted_head_ = head.payload;
    }
    start_queue_->pop_min();
    promoted_head_.reset();
    return true;
}

void PifoScheduler::promote_eligible(net::TimeNs now) {
    const std::uint64_t horizon = rank_->eligibility_horizon(now);
    while (const auto head = start_queue_->peek_min()) {
        // A head the primary's window cannot hold yet stays pending until
        // service drains the window.
        if (head->tag > horizon || !promote_head(*head)) break;
    }
}

std::optional<net::Packet> PifoScheduler::do_dequeue(net::TimeNs now) {
    if (start_queue_) {
        promote_eligible(now);
        if (primary_->empty()) {
            // Under an exact eligibility clock every backlogged head has
            // S <= V(t), so an empty eligible set is quantization rounding
            // — force the head across rather than idle the link.
            if (const auto head = start_queue_->peek_min()) promote_head(*head);
        }
    }
    const auto entry = primary_->pop_min();
    if (!entry) return std::nullopt;
    const net::Packet packet = buffer_.retrieve(entry->payload);
    rank_->on_service(packet, now);
    rank_->on_service_rank(entry->tag, now);
    return packet;
}

bool PifoScheduler::has_packets() const {
    return !primary_->empty() || (start_queue_ && !start_queue_->empty());
}

std::size_t PifoScheduler::queued_packets() const {
    return primary_->size() + (start_queue_ ? start_queue_->size() : 0);
}

std::string PifoScheduler::name() const {
    return "PIFO-" + rank_->name() + "(" + primary_->name() + ")";
}

std::optional<std::uint32_t> PifoScheduler::peek_size(net::TimeNs now) {
    // Promotion is service-order-invariant (dequeue at the same `now`
    // promotes identically), so peeking may promote.
    if (start_queue_) promote_eligible(now);
    if (const auto head = primary_->peek_min())
        return buffer_.peek(head->payload).size_bytes;
    if (start_queue_) {
        // dequeue() would force-promote exactly this head and serve it.
        if (const auto head = start_queue_->peek_min())
            return buffer_.peek(head->payload).size_bytes;
    }
    return std::nullopt;
}

bool PifoScheduler::recover() {
    // Which structure faulted is not recorded: scrub both.
    bool ok = primary_->recover();
    if (start_queue_) ok = start_queue_->recover() && ok;
    return ok;
}

}  // namespace wfqs::sched_prog
