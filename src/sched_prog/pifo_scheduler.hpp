// PifoScheduler — the programmable scheduling layer over the paper's
// sorter, and the repo's one fair-queueing scheduler (Fig. 1: tag
// computation + shared packet buffer + tag sort/retrieve structure).
//
// Any TagSorter-contract backend (the cycle-accurate model, the sharded
// circuit, the host-native FFS sorter, or any Table I baseline behind
// baselines::TagQueue) serves as the PIFO primitive; the discipline is
// chosen by plugging in a RankFunction (WFQ, WF2Q+, SCFQ, FBFQ, SRPT,
// LSTF, PRIO). Single-stage policies use one sort structure keyed by the
// service rank; two-stage policies (WF2Q+) add a second structure keyed
// by the start rank, from which packets are promoted once eligible —
// the two sort operations per packet of §I-B.
//
// A wrap-window sorter (Fig. 6) can only hold ranks within its window
// span of one another. A packet whose rank would stretch the window is
// dropped at enqueue, after the rank function has seen it (as RIFO
// admission does); a two-stage packet whose finish rank the primary
// cannot hold yet stays pending until service drains the window.
//
// Faults: when a sort structure throws fault::FaultError (or anything
// but the window refusal), enqueue/dequeue rethrow it with nothing
// leaked and nothing half-moved, and recover() forwards to the sort
// structures. SimDriver then retries the same operation, and the run
// continues as if the fault had not struck: a retried arrival reuses its
// ranks, and a promotion interrupted between the two sorters resumes.
//
// Construction takes a *queue factory* rather than queue instances, so
// one configuration line can build either one or two sort structures
// (and benches can sweep backends without knowing which policies are
// two-stage).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "baselines/tag_queue.hpp"
#include "sched_prog/rank.hpp"
#include "scheduler/packet_buffer.hpp"
#include "scheduler/scheduler.hpp"

namespace wfqs::sched_prog {

using QueueFactory = std::function<std::unique_ptr<baselines::TagQueue>()>;

class PifoScheduler final : public scheduler::Scheduler {
public:
    struct Config {
        RankPolicy policy = RankPolicy::kWfq;
        RankConfig rank = {};
        scheduler::SharedPacketBuffer::Config buffer = {};
    };

    PifoScheduler(const Config& config, QueueFactory make_queue);

    net::FlowId add_flow(std::uint32_t weight) override;
    bool do_enqueue(const net::Packet& packet, net::TimeNs now) override;
    std::optional<net::Packet> do_dequeue(net::TimeNs now) override;

    bool has_packets() const override;
    std::size_t queued_packets() const override;
    std::string name() const override;
    std::optional<std::uint32_t> peek_size(net::TimeNs now) override;
    bool recover() override;

    /// Packets refused for lack of buffer space.
    std::uint64_t drops() const { return buffer_.drops(); }
    const scheduler::SharedPacketBuffer& buffer() const { return buffer_; }
    const RankFunction& rank_function() const { return *rank_; }
    /// Packets past the eligibility gate (== queued for single-stage).
    std::size_t eligible_packets() const { return primary_->size(); }

private:
    /// An arrival whose enqueue threw; the caller retries it after
    /// recover(). `queued`: it already sits in the start queue and only
    /// its promotion was cut short.
    struct FaultedArrival {
        std::uint64_t packet_id;
        RankSet ranks;
        bool queued;
    };

    void promote_eligible(net::TimeNs now);
    /// Move the start queue's head into the primary; false when the
    /// primary's window refuses it.
    bool promote_head(const baselines::QueueEntry& head);

    Config config_;
    std::unique_ptr<RankFunction> rank_;
    std::unique_ptr<baselines::TagQueue> primary_;      ///< service-rank order
    std::unique_ptr<baselines::TagQueue> start_queue_;  ///< two-stage only
    scheduler::SharedPacketBuffer buffer_;  ///< sorter payloads are its refs
    std::vector<std::uint64_t> service_rank_;  ///< two-stage only; by ref
    std::optional<FaultedArrival> faulted_;
    /// The start queue's head once the primary holds it, until the start
    /// queue's pop lands: a fault on that pop cannot duplicate it.
    std::optional<scheduler::BufferRef> promoted_head_;
};

}  // namespace wfqs::sched_prog
