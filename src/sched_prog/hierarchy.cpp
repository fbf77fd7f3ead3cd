#include "sched_prog/hierarchy.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace wfqs::sched_prog {

unsigned HierScheduler::add_class(const ClassConfig& config,
                                  std::unique_ptr<scheduler::Scheduler> child) {
    WFQS_REQUIRE(child != nullptr, "hierarchy class needs a child scheduler");
    WFQS_REQUIRE(flows_.empty(), "add classes before registering flows");
    WFQS_REQUIRE(config.weight > 0, "class weight must be positive");
    WFQS_REQUIRE(config.quantum_bytes > 0, "class quantum must be positive");
    const unsigned cls = static_cast<unsigned>(classes_.size());
    auto [it, inserted] = levels_.try_emplace(config.priority);
    if (inserted) {
        it->second.sharing = config.sharing;
    } else {
        WFQS_REQUIRE(it->second.sharing == config.sharing,
                     "all classes at one priority level must share the same "
                     "discipline");
    }
    it->second.classes.push_back(cls);
    it->second.min_quantum = std::min(it->second.min_quantum, config.quantum_bytes);
    classes_.push_back(ClassState{config, std::move(child), {}, 0});
    return cls;
}

net::FlowId HierScheduler::add_flow_in_class(unsigned cls, std::uint32_t weight) {
    WFQS_REQUIRE(cls < classes_.size(), "unknown hierarchy class");
    ClassState& state = classes_[cls];
    const net::FlowId local = state.child->add_flow(weight);
    const net::FlowId global = static_cast<net::FlowId>(flows_.size());
    WFQS_REQUIRE(local == state.local_to_global.size(),
                 "child schedulers must hand out dense flow ids");
    state.local_to_global.push_back(global);
    flows_.push_back(FlowRoute{cls, local});
    return global;
}

net::FlowId HierScheduler::add_flow(std::uint32_t weight) {
    WFQS_REQUIRE(!classes_.empty(), "hierarchy has no classes");
    const net::FlowId next = static_cast<net::FlowId>(flows_.size());
    return add_flow_in_class(static_cast<unsigned>(next % classes_.size()), weight);
}

bool HierScheduler::do_enqueue(const net::Packet& packet, net::TimeNs now) {
    WFQS_REQUIRE(packet.flow < flows_.size(), "packet for unregistered flow");
    const FlowRoute route = flows_[packet.flow];
    net::Packet local = packet;
    local.flow = route.local;
    ClassState& state = classes_[route.cls];
    if (!state.child->enqueue(local, now)) return false;
    Level& level = levels_.at(state.config.priority);
    if (level.sharing == Sharing::kDwrr) level.ring.activate(route.cls);
    return true;
}

std::optional<net::Packet> HierScheduler::do_dequeue(net::TimeNs now) {
    // Strict priority between levels: the first (lowest-priority-number)
    // level with a backlogged class wins outright.
    for (auto& [priority, level] : levels_) {
        (void)priority;
        bool backlogged = false;
        for (unsigned cls : level.classes)
            backlogged = backlogged || classes_[cls].child->has_packets();
        if (!backlogged) continue;
        return level.sharing == Sharing::kDwrr ? dequeue_dwrr(level, now)
                                               : dequeue_wfq(level, now);
    }
    return std::nullopt;
}

std::optional<net::Packet> HierScheduler::dequeue_dwrr(Level& level,
                                                       net::TimeNs now) {
    // Deficit round robin, one packet per call: a class keeps the front of
    // the ring while its deficit covers the head-of-line packet. Children
    // without peek_size are charged (and budgeted) one quantum per packet,
    // degrading to plain WRR. Every full rotation grows each backlogged
    // class's deficit by its quantum, so covering the largest representable
    // packet needs at most 64KiB/min_quantum rotations — a hard bound, not
    // a heuristic.
    const std::size_t max_visits =
        level.classes.size() * (2 + (std::size_t{64} << 10) / level.min_quantum);
    const auto turn = level.ring.select(
        [&](std::size_t cls) -> std::optional<std::uint64_t> {
            ClassState& state = classes_[cls];
            if (!state.child->has_packets()) return std::nullopt;
            const std::optional<std::uint32_t> head = state.child->peek_size(now);
            return head ? *head : state.config.quantum_bytes;
        },
        [&](std::size_t cls) { return classes_[cls].config.quantum_bytes; },
        max_visits);
    WFQS_REQUIRE(turn.has_value(),
                 "DWRR failed to pick a class from a backlogged level");
    const unsigned cls = static_cast<unsigned>(turn->member);
    std::optional<net::Packet> pkt = classes_[cls].child->dequeue(now);
    WFQS_REQUIRE(pkt.has_value(), "backlogged hierarchy child refused to dequeue");
    level.ring.charge(*turn);
    return translate_back(cls, *pkt);
}

std::optional<net::Packet> HierScheduler::dequeue_wfq(Level& level,
                                                      net::TimeNs now) {
    // Self-clocked class-level WFQ (SCFQ): pick the backlogged class with
    // the smallest candidate finish tag start + size*scale/weight where
    // start = max(class finish, level virtual time); the served tag
    // becomes the new virtual time.
    unsigned best_cls = 0;
    std::uint64_t best_finish = 0;
    bool found = false;
    for (unsigned cls : level.classes) {
        ClassState& state = classes_[cls];
        if (!state.child->has_packets()) continue;
        const std::optional<std::uint32_t> head = state.child->peek_size(now);
        const std::uint64_t bytes = head ? *head : kMtuFallbackBytes;
        const std::uint64_t start = std::max(state.finish, level.virtual_time);
        const std::uint64_t finish =
            start + bytes * kWfqScale / state.config.weight;
        if (!found || finish < best_finish) {
            found = true;
            best_cls = cls;
            best_finish = finish;
        }
    }
    if (!found) return std::nullopt;
    ClassState& state = classes_[best_cls];
    std::optional<net::Packet> pkt = state.child->dequeue(now);
    WFQS_REQUIRE(pkt.has_value(),
                 "backlogged hierarchy child refused to dequeue");
    // Recompute with the actual size in case the child could not peek.
    const std::uint64_t start = std::max(state.finish, level.virtual_time);
    state.finish = start + std::uint64_t{pkt->size_bytes} * kWfqScale /
                               state.config.weight;
    level.virtual_time = state.finish;
    return translate_back(best_cls, *pkt);
}

net::Packet HierScheduler::translate_back(unsigned cls,
                                          net::Packet packet) const {
    const ClassState& state = classes_[cls];
    WFQS_REQUIRE(packet.flow < state.local_to_global.size(),
                 "child returned a packet for an unknown local flow");
    packet.flow = state.local_to_global[packet.flow];
    return packet;
}

bool HierScheduler::has_packets() const {
    for (const ClassState& state : classes_)
        if (state.child->has_packets()) return true;
    return false;
}

std::size_t HierScheduler::queued_packets() const {
    std::size_t n = 0;
    for (const ClassState& state : classes_) n += state.child->queued_packets();
    return n;
}

std::string HierScheduler::name() const {
    std::string out = "HIER(";
    for (std::size_t i = 0; i < classes_.size(); ++i) {
        if (i > 0) out += ",";
        out += 'p';
        out += std::to_string(classes_[i].config.priority);
        out += ':';
        out += classes_[i].child->name();
    }
    return out + ")";
}

std::optional<std::uint32_t> HierScheduler::peek_size(net::TimeNs now) {
    // Cheap conservative peek: the head of the first backlogged level's
    // first backlogged class is not always the packet dequeue would pick
    // (DWRR/WFQ may choose a sibling), so only answer when unambiguous.
    for (auto& [priority, level] : levels_) {
        (void)priority;
        unsigned backlogged_cls = 0;
        int backlogged = 0;
        for (unsigned cls : level.classes) {
            if (classes_[cls].child->has_packets()) {
                backlogged_cls = cls;
                ++backlogged;
            }
        }
        if (backlogged == 0) continue;
        if (backlogged > 1) return std::nullopt;
        return classes_[backlogged_cls].child->peek_size(now);
    }
    return std::nullopt;
}

}  // namespace wfqs::sched_prog
