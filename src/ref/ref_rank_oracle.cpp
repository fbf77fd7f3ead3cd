#include "ref/ref_rank_oracle.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "sched_prog/rifo.hpp"

namespace wfqs::ref {

// ---------------------------------------------------------------------------
// RefRankOracle

RefRankOracle::RefRankOracle(sched_prog::RankPolicy policy,
                             const sched_prog::RankConfig& config,
                             std::uint64_t window_span)
    : rank_(sched_prog::make_rank_function(policy, config)),
      window_span_(window_span) {}

net::FlowId RefRankOracle::add_flow(std::uint32_t weight) {
    return rank_->add_flow(weight);
}

bool RefRankOracle::fits(const std::map<Key, Stored>& queue,
                         std::uint64_t key) const {
    if (window_span_ == 0 || queue.empty()) return true;
    const std::uint64_t lo = std::min(key, queue.begin()->first.first);
    const std::uint64_t hi = std::max(key, queue.rbegin()->first.first);
    return hi - lo < window_span_;
}

bool RefRankOracle::enqueue(const net::Packet& packet, net::TimeNs now) {
    const sched_prog::RankSet rs = rank_->on_arrival(packet, now);
    if (rank_->two_stage()) {
        if (!fits(pending_, rs.start)) return false;
        pending_.emplace(Key{rs.start, arrival_seq_++},
                         Stored{packet, rs.rank});
        promote(now);
    } else {
        if (!fits(eligible_, rs.rank)) return false;
        eligible_.emplace(Key{rs.rank, promo_seq_++}, Stored{packet, rs.rank});
    }
    return true;
}

void RefRankOracle::promote(net::TimeNs now) {
    const std::uint64_t horizon = rank_->eligibility_horizon(now);
    while (!pending_.empty() && pending_.begin()->first.first <= horizon &&
           fits(eligible_, pending_.begin()->second.rank)) {
        Stored stored = pending_.begin()->second;
        pending_.erase(pending_.begin());
        eligible_.emplace(Key{stored.rank, promo_seq_++}, std::move(stored));
    }
}

std::optional<net::Packet> RefRankOracle::dequeue(net::TimeNs now) {
    if (rank_->two_stage()) {
        promote(now);
        if (eligible_.empty() && !pending_.empty()) {
            // Forced promotion: quantization can round every start tag
            // above the horizon even though work is queued; serve the
            // earliest start rather than idle (mirrors PifoScheduler).
            Stored stored = pending_.begin()->second;
            pending_.erase(pending_.begin());
            eligible_.emplace(Key{stored.rank, promo_seq_++},
                              std::move(stored));
        }
    }
    if (eligible_.empty()) return std::nullopt;
    Stored stored = eligible_.begin()->second;
    eligible_.erase(eligible_.begin());
    rank_->on_service(stored.packet, now);
    rank_->on_service_rank(stored.rank, now);
    return stored.packet;
}

std::optional<std::uint64_t> RefRankOracle::min_rank(net::TimeNs now) {
    if (rank_->two_stage()) promote(now);
    if (!eligible_.empty()) return eligible_.begin()->first.first;
    if (!pending_.empty()) return pending_.begin()->second.rank;
    return std::nullopt;
}

// ---------------------------------------------------------------------------
// RefSpPifo

RefSpPifo::RefSpPifo(sched_prog::RankPolicy policy, unsigned num_queues,
                     const sched_prog::RankConfig& config)
    : rank_(sched_prog::make_rank_function(policy, config)),
      queues_(std::max(1u, num_queues)),
      heads_(std::max(1u, num_queues), 0),
      bounds_(std::max(1u, num_queues), 0) {
    WFQS_REQUIRE(!rank_->two_stage(),
                 "SP-PIFO mirror is single-stage, like the DUT");
}

net::FlowId RefSpPifo::add_flow(std::uint32_t weight) {
    return rank_->add_flow(weight);
}

std::uint64_t RefSpPifo::enqueue(const net::Packet& packet, net::TimeNs now) {
    const std::uint64_t rank = rank_->on_arrival(packet, now).rank;
    for (std::size_t q = queues_.size(); q-- > 0;) {
        if (rank >= bounds_[q]) {
            bounds_[q] = rank;
            queues_[q].emplace_back(packet, rank);
            return rank;
        }
    }
    const std::uint64_t cost = bounds_[0] - rank;
    for (std::uint64_t& bound : bounds_) bound -= std::min(bound, cost);
    bounds_[0] = rank;
    queues_[0].emplace_back(packet, rank);
    return rank;
}

std::optional<net::Packet> RefSpPifo::dequeue(net::TimeNs now) {
    for (std::size_t q = 0; q < queues_.size(); ++q) {
        if (heads_[q] == queues_[q].size()) continue;
        const auto [packet, rank] = queues_[q][heads_[q]++];
        if (heads_[q] == queues_[q].size()) {
            queues_[q].clear();
            heads_[q] = 0;
        }
        rank_->on_service(packet, now);
        rank_->on_service_rank(rank, now);
        return packet;
    }
    return std::nullopt;
}

bool RefSpPifo::empty() const { return size() == 0; }

std::size_t RefSpPifo::size() const {
    std::size_t n = 0;
    for (std::size_t q = 0; q < queues_.size(); ++q)
        n += queues_[q].size() - heads_[q];
    return n;
}

// ---------------------------------------------------------------------------
// RefRifo

RefRifo::RefRifo(sched_prog::RankPolicy policy, std::size_t capacity,
                 const sched_prog::RankConfig& config)
    : rank_(sched_prog::make_rank_function(policy, config)),
      capacity_(capacity) {
    WFQS_REQUIRE(capacity_ > 0, "RIFO mirror needs a positive capacity");
    WFQS_REQUIRE(!rank_->two_stage(), "RIFO mirror is single-stage");
}

net::FlowId RefRifo::add_flow(std::uint32_t weight) {
    return rank_->add_flow(weight);
}

bool RefRifo::enqueue(const net::Packet& packet, net::TimeNs now) {
    const std::uint64_t rank = rank_->on_arrival(packet, now).rank;
    const std::uint64_t min_rank = ranks_.empty() ? 0 : *ranks_.begin();
    const std::uint64_t max_rank = ranks_.empty() ? 0 : *ranks_.rbegin();
    if (!sched_prog::RifoScheduler::admits(rank, size(), capacity_, min_rank,
                                           max_rank)) {
        ++rank_drops_;
        return false;
    }
    fifo_.emplace_back(packet, rank);
    ranks_.insert(rank);
    return true;
}

std::optional<net::Packet> RefRifo::dequeue(net::TimeNs now) {
    if (empty()) return std::nullopt;
    auto [packet, rank] = fifo_[head_++];
    ranks_.erase(ranks_.find(rank));
    if (head_ == fifo_.size()) {
        fifo_.clear();
        head_ = 0;
    }
    rank_->on_service(packet, now);
    rank_->on_service_rank(rank, now);
    return packet;
}

// ---------------------------------------------------------------------------
// RankInversionMeter

RankInversionMeter::RankInversionMeter(sched_prog::RankPolicy policy,
                                       const sched_prog::RankConfig& config)
    : rank_(sched_prog::make_rank_function(policy, config)) {}

net::FlowId RankInversionMeter::add_flow(std::uint32_t weight) {
    return rank_->add_flow(weight);
}

void RankInversionMeter::on_offer(const net::Packet& packet, net::TimeNs now,
                                  bool accepted) {
    const sched_prog::RankSet rs = rank_->on_arrival(packet, now);
    if (!accepted) return;  // the clock saw it; the queue image did not
    Image image{rs.rank, rs.start, !rank_->two_stage()};
    queued_.emplace(packet.id, image);
    if (rank_->two_stage()) {
        pending_.emplace(rs.start, packet.id);
        promote(now);
    } else {
        eligible_ranks_.insert(rs.rank);
    }
}

void RankInversionMeter::promote(net::TimeNs now) {
    const std::uint64_t horizon = rank_->eligibility_horizon(now);
    while (!pending_.empty() && pending_.begin()->first <= horizon) {
        Image& image = queued_.at(pending_.begin()->second);
        image.eligible = true;
        eligible_ranks_.insert(image.rank);
        pending_.erase(pending_.begin());
    }
}

void RankInversionMeter::on_serve(const net::Packet& packet, net::TimeNs now) {
    ++serves_;
    auto it = queued_.find(packet.id);
    WFQS_REQUIRE(it != queued_.end(), "served packet was never offered");
    if (rank_->two_stage()) promote(now);
    const Image image = it->second;
    queued_.erase(it);
    if (image.eligible) {
        eligible_ranks_.erase(eligible_ranks_.find(image.rank));
    } else {
        // Forced promotion served an ineligible packet; it sat in the
        // pending image, never in the eligible rank set.
        pending_.erase(pending_.find({image.start, packet.id}));
    }
    rank_->on_service(packet, now);
    rank_->on_service_rank(image.rank, now);
    if (!eligible_ranks_.empty() && image.rank > *eligible_ranks_.begin())
        ++inversions_;
}

}  // namespace wfqs::ref
