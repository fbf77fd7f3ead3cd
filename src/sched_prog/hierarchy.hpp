// Hierarchical composition over the programmable schedulers: classes
// with strict priority *between* levels and DWRR or class-level WFQ
// *within* a level, each class wrapping an arbitrary child Scheduler
// (typically a PifoScheduler with its own rank policy).
//
// The two named shapes (after the ns-2 TCN queues prio_wfq.cc /
// prio_dwrr.cc — a strict-priority EF queue over weighted sharing among
// the rest):
//
//   * strict-priority-over-WFQ: an EF class at priority 0, the remaining
//     classes at priority 1 sharing by class-level WFQ (self-clocked:
//     the level's virtual time is the finish tag of the class head last
//     served; integer arithmetic, deterministic).
//   * DWRR classes: one level whose classes share by deficit round
//     robin, quantum per class, visited in backlog order on the same
//     scheduler::DeficitRing DrrScheduler runs (Shreedhar and Varghese's
//     active list: a class joins the back when its child gains a packet).
//
// The parent needs head-of-line sizes to budget deficits and compute
// class finish tags — Scheduler::peek_size. Children that cannot peek
// degrade gracefully to one-packet-per-visit (WRR) within DWRR levels
// and to an MTU estimate within WFQ levels.
//
// Flow routing: flows registered through the driver-facing add_flow are
// assigned round robin over classes in creation order; add_flow_in_class
// pins a flow explicitly. Packets keep their *global* flow ids at the
// boundary — the parent translates to the child's local id space on
// enqueue and back on dequeue, so SimDriver records stay
// analysis-compatible.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "scheduler/round_robin.hpp"
#include "scheduler/scheduler.hpp"

namespace wfqs::sched_prog {

class HierScheduler final : public scheduler::Scheduler {
public:
    enum class Sharing { kDwrr, kWfq };

    struct ClassConfig {
        unsigned priority = 1;        ///< 0 is served strictly first
        std::uint32_t weight = 1;     ///< share within the level (kWfq)
        std::uint32_t quantum_bytes = 3000;  ///< DRR quantum per visit (kDwrr)
        Sharing sharing = Sharing::kDwrr;    ///< must agree across a level
    };

    HierScheduler() = default;

    /// Add a class wrapping `child`. Classes must be added before flows.
    unsigned add_class(const ClassConfig& config,
                       std::unique_ptr<scheduler::Scheduler> child);

    /// Pin a flow to a class; returns the flow's *global* id.
    net::FlowId add_flow_in_class(unsigned cls, std::uint32_t weight);

    /// Driver-facing registration: round robin over classes in creation
    /// order.
    net::FlowId add_flow(std::uint32_t weight) override;

    bool do_enqueue(const net::Packet& packet, net::TimeNs now) override;
    std::optional<net::Packet> do_dequeue(net::TimeNs now) override;

    bool has_packets() const override;
    std::size_t queued_packets() const override;
    std::string name() const override;
    std::optional<std::uint32_t> peek_size(net::TimeNs now) override;

    const scheduler::Scheduler& child(unsigned cls) const {
        return *classes_.at(cls).child;
    }

private:
    struct ClassState {
        ClassConfig config;
        std::unique_ptr<scheduler::Scheduler> child;
        std::vector<net::FlowId> local_to_global;
        // Class-level WFQ state (scaled by kWfqScale).
        std::uint64_t finish = 0;
    };
    struct Level {
        Sharing sharing = Sharing::kDwrr;
        std::vector<unsigned> classes;  ///< indices, creation order
        scheduler::DeficitRing ring;    ///< DWRR over class indices
        std::uint32_t min_quantum = std::numeric_limits<std::uint32_t>::max();
        std::uint64_t virtual_time = 0; ///< class-WFQ clock (scaled)
    };
    static constexpr std::uint64_t kWfqScale = 256;
    static constexpr std::uint32_t kMtuFallbackBytes = 1500;

    std::optional<net::Packet> dequeue_dwrr(Level& level, net::TimeNs now);
    std::optional<net::Packet> dequeue_wfq(Level& level, net::TimeNs now);
    net::Packet translate_back(unsigned cls, net::Packet packet) const;

    std::vector<ClassState> classes_;
    std::map<unsigned, Level> levels_;  ///< ascending priority
    struct FlowRoute {
        unsigned cls;
        net::FlowId local;
    };
    std::vector<FlowRoute> flows_;  ///< global flow id -> (class, local id)
};

}  // namespace wfqs::sched_prog
