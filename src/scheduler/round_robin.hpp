// The round-robin scheduler family of §I-B — the approaches the paper
// argues cannot provide effective delay bounds for variable-size packets:
//
//   WRR  — weighted round robin [2]: per-round packet credits equal to
//          the flow weight (assumes known/uniform packet sizes).
//   DRR  — deficit round robin [3]: byte-accurate quanta, O(1) work.
//   MDRR — modified DRR: one strict-priority low-latency queue (flow 0)
//          in front of DRR for the rest (the Cisco VoIP arrangement §I-B
//          cites).
//   SRR  — stratified round robin [11]: flows grouped into weight classes
//          (strata); deficit scheduling across classes, plain round robin
//          within one — reproducing the aggregation granularity the paper
//          holds against it ("the number of traffic classes is greatly
//          limited").
//
// DRR, MDRR and SRR's strata, and HierScheduler's DWRR levels, all run on
// one DeficitRing: Shreedhar and Varghese's active list in backlog order
// with a deficit per member.
//
// All share the per-flow FIFO + shared-buffer machinery so drop behaviour
// is comparable with the fair-queueing scheduler.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <vector>

#include "scheduler/packet_buffer.hpp"
#include "scheduler/scheduler.hpp"

namespace wfqs::scheduler {

/// Deficit round robin over members named by small integers (flows,
/// strata or classes). A member joins the back of the active list when it
/// becomes backlogged; each turn at the front grants it one quantum, and
/// it keeps the front while its deficit covers its head-of-line cost.
class DeficitRing {
public:
    struct Turn {
        std::size_t member;
        std::uint64_t cost;  ///< head-of-line cost the deficit covers
    };

    /// Join the back of the active list unless already on it.
    void activate(std::size_t m) {
        if (m >= members_.size()) members_.resize(m + 1);
        if (members_[m].active) return;
        members_[m].active = true;
        active_.push_back(m);
    }

    /// Rotate until the front member's deficit covers its head cost and
    /// return that member, without charging it. `cost(m)` gives m's head
    /// cost, or nullopt when m has nothing queued (m then leaves the ring
    /// and forfeits its deficit); `quantum(m)` is the credit m gets at the
    /// start of each turn. With no enqueue or charge in between, a second
    /// select returns the same turn. Returns nullopt when the active list
    /// empties or after `max_visits` visits to the front.
    template <typename Cost, typename Quantum>
    std::optional<Turn> select(Cost&& cost, Quantum&& quantum,
                               std::size_t max_visits =
                                   std::numeric_limits<std::size_t>::max()) {
        for (; max_visits > 0 && !active_.empty(); --max_visits) {
            const std::size_t m = active_.front();
            Member& member = members_[m];
            const std::optional<std::uint64_t> head = cost(m);
            if (!head) {
                member = Member{};
                active_.pop_front();
                continue;
            }
            if (member.fresh) {
                member.deficit += quantum(m);
                member.fresh = false;
            }
            if (member.deficit >= *head) return Turn{m, *head};
            // Deficit exhausted: rotate to the back, keep the remainder.
            member.fresh = true;
            active_.pop_front();
            active_.push_back(m);
        }
        return std::nullopt;
    }

    /// Pay for the turn select returned once its head has been served.
    void charge(const Turn& turn) { members_[turn.member].deficit -= turn.cost; }

private:
    struct Member {
        std::uint64_t deficit = 0;
        bool fresh = true;  ///< next visit to the front starts a turn
        bool active = false;
    };
    std::vector<Member> members_;
    std::deque<std::size_t> active_;
};

/// Shared machinery: per-flow FIFOs of buffer references.
class PerFlowScheduler : public Scheduler {
public:
    explicit PerFlowScheduler(const SharedPacketBuffer::Config& buffer = {});

    net::FlowId add_flow(std::uint32_t weight) override;
    bool do_enqueue(const net::Packet& packet, net::TimeNs now) override;
    bool has_packets() const override { return queued_ > 0; }
    std::size_t queued_packets() const override { return queued_; }

    const SharedPacketBuffer& buffer() const { return buffer_; }
    std::uint64_t drops() const { return buffer_.drops(); }

protected:
    struct Flow {
        std::uint32_t weight;
        std::deque<BufferRef> q;
    };

    /// Called after a packet joins flow `f`'s queue.
    virtual void on_backlogged(net::FlowId f) = 0;

    std::uint32_t head_bytes(net::FlowId f) const;
    net::Packet serve_head(net::FlowId f);

    std::vector<Flow> flows_;
    SharedPacketBuffer buffer_;
    std::size_t queued_ = 0;
};

class WrrScheduler final : public PerFlowScheduler {
public:
    using PerFlowScheduler::PerFlowScheduler;
    std::optional<net::Packet> do_dequeue(net::TimeNs now) override;
    std::string name() const override { return "WRR"; }

protected:
    void on_backlogged(net::FlowId) override {}

private:
    std::vector<std::uint32_t> credits_;
    std::size_t cursor_ = 0;
};

/// Flow f's quantum is quantum_bytes × its weight.
class DrrScheduler : public PerFlowScheduler {
public:
    explicit DrrScheduler(std::uint32_t quantum_bytes = 1500,
                          const SharedPacketBuffer::Config& buffer = {});
    std::optional<net::Packet> do_dequeue(net::TimeNs now) override;
    std::optional<std::uint32_t> peek_size(net::TimeNs now) override;
    std::string name() const override { return "DRR"; }

protected:
    void on_backlogged(net::FlowId f) override { ring_.activate(f); }

private:
    std::optional<DeficitRing::Turn> select();

    std::uint32_t quantum_;
    DeficitRing ring_;
};

/// DRR over every flow but flow 0, which is served strictly first.
class MdrrScheduler final : public DrrScheduler {
public:
    using DrrScheduler::DrrScheduler;
    std::optional<net::Packet> do_dequeue(net::TimeNs now) override;
    std::optional<std::uint32_t> peek_size(net::TimeNs now) override;
    std::string name() const override { return "MDRR"; }

protected:
    void on_backlogged(net::FlowId f) override;

private:
    static constexpr net::FlowId kPriorityFlow = 0;
    bool priority_backlogged() const {
        return !flows_.empty() && !flows_[kPriorityFlow].q.empty();
    }
};

/// Stratum k holds the flows with weight in [2^k, 2^(k+1)); a DeficitRing
/// runs over the strata.
class SrrScheduler final : public PerFlowScheduler {
public:
    explicit SrrScheduler(std::uint32_t quantum_bytes = 1500,
                          const SharedPacketBuffer::Config& buffer = {});
    net::FlowId add_flow(std::uint32_t weight) override;
    std::optional<net::Packet> do_dequeue(net::TimeNs now) override;
    std::string name() const override { return "SRR"; }

protected:
    void on_backlogged(net::FlowId f) override;

private:
    std::uint32_t quantum_;
    std::vector<std::size_t> flow_stratum_;
    /// Backlogged members of each stratum, in round-robin order.
    std::vector<std::deque<net::FlowId>> strata_;
    DeficitRing ring_;
};

}  // namespace wfqs::scheduler
