// Sharded multi-bank sorter: N independent TagSorter banks behind one
// sort/retrieve interface — the paper's scalability move made explicit.
//
// The paper's circuit serves one output port at 1 tag / 4 cycles; §IV
// argues aggregate throughput grows by *replicating* the circuit, not by
// deepening it. This module models that replication cycle-accurately:
//
//   * bank selection — kTagInterleave sends tag t to bank (t mod N) and
//     stores the compressed local tag (t div N), so consecutive virtual
//     times round-robin the banks and every bank keeps the paper's exact
//     geometry. Reconstruction (local*N + bank) is lossless, equal tag
//     values always land in the same bank (per-bank FIFO among
//     duplicates is global FIFO), and the aggregate moving window widens
//     to N x the single-bank span. kFlowHash instead pins a flow's tags
//     to one bank (full tag stored); cross-bank ties break by bank
//     index, trading exact duplicate order for flow locality.
//
//   * bank arbiter — each bank is the paper's pipelined circuit with a
//     fixed initiation interval (II = max(levels+1, 4) cycles). The
//     arbiter models saturated offered load: one operation arrives per
//     cycle at the input port, queues at its bank, and issues the moment
//     the bank's pipeline is free. Different banks overlap fully, so the
//     modeled sustained rate approaches 1 op/cycle once N >= II. The
//     makespan of that overlapped schedule is `modeled_cycles()`; the
//     behavioural execution underneath still runs each bank op on the
//     shared hw::Simulation clock (so SRAM port budgets stay checked and
//     `sequential_cycles` records what a single engine would have spent).
//
//   * head merge — every bank's smallest tag is a head register; a
//     comparator tree across the N heads keeps "retrieve smallest" a
//     fixed-time register read. Here it is a cached winner updated
//     incrementally when a bank head changes: a head that drops below
//     the winner takes over at once, and only a winner whose own head
//     rises (or empties) triggers a sweep over the N cached heads.
//     Logical tags are compared un-wrapped, so each bank's moving-window
//     wrap discipline stays a bank-local concern.
//
// With num_banks == 1 the module is a pass-through: the same single
// TagSorter, the same SRAM inventory (same names), the same clock
// advance per op — bit- and cycle-identical to the unsharded path. Its
// host cost per op does not grow with the bank count either: the head
// update reads only the bank's head register and the sweep covers one
// head, and size() is a running count.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/tag_sorter.hpp"

namespace wfqs::core {

class ReshardController;

struct ShardedStats {
    std::uint64_t inserts = 0;
    std::uint64_t pops = 0;
    std::uint64_t combined_ops = 0;
    std::uint64_t same_bank_combined = 0;   ///< combined op fused in one bank
    std::uint64_t cross_bank_combined = 0;  ///< split insert/pop engagements
    std::uint64_t bank_wait_cycles = 0;     ///< modeled queueing at busy banks
    std::uint64_t sequential_cycles = 0;    ///< sum of behavioural op latencies
    std::uint64_t head_merge_updates = 0;   ///< comparator-tree re-evaluations
    std::uint64_t migration_moves = 0;      ///< entries moved between banks
    std::uint64_t migration_cycles = 0;     ///< behavioural cycles stolen by moves
    std::uint64_t migration_stalls = 0;     ///< deferred moves: no bank could accept
};

/// One completed migration step: the minimum of bank `from` re-inserted
/// into bank `to`. Emitted through the move listener so conformance
/// oracles (and the reshard controller) can mirror every move.
struct MoveRecord {
    unsigned from = 0;
    unsigned to = 0;
    std::uint64_t tag = 0;
    std::uint32_t payload = 0;
};

class ShardedSorter {
public:
    enum class BankSelect {
        kTagInterleave,  ///< bank = tag mod N, store tag div N (default)
        kFlowHash,       ///< bank = hash(flow_key) mod N, store full tag
    };

    /// Lifecycle of a bank under online resharding. Interleaved banks are
    /// always kActive: the compressed local-tag encoding couples an
    /// entry's value to its bank index, so cross-bank migration (and with
    /// it fencing/detaching) only exists under kFlowHash.
    enum class BankState : std::uint8_t {
        kActive,    ///< routable: bank_for may place new tags here
        kDraining,  ///< fenced: still serves the head merge, receives no new tags
        kDetached,  ///< empty tombstone: keeps its index and SRAM inventory
    };

    struct Config {
        TagSorter::Config bank = {};  ///< per-bank circuit (capacity is per bank)
        unsigned num_banks = 1;       ///< power of two (at construction)
        BankSelect select = BankSelect::kTagInterleave;
    };

    ShardedSorter(const Config& config, hw::Simulation& sim);

    // -- datapath ----------------------------------------------------------

    /// Sort `tag` into its bank. `flow_key` only matters under kFlowHash.
    /// Throws std::overflow_error when the target bank is full.
    void insert(std::uint64_t tag, std::uint32_t payload, std::uint64_t flow_key = 0);

    /// Smallest stored tag across all banks — head-merge register read,
    /// zero cycles.
    std::optional<SortedTag> peek_min() const;

    /// Remove and return the smallest tag across all banks.
    std::optional<SortedTag> pop_min();

    /// Simultaneous store + serve (§III-C semantics: the *previous*
    /// minimum departs, `tag` enters). Fuses into one bank op when the
    /// incoming tag targets the minimum's bank; otherwise the pop and the
    /// insert engage their two banks in the same arbiter slot.
    /// Precondition: non-empty.
    SortedTag insert_and_pop(std::uint64_t tag, std::uint32_t payload,
                             std::uint64_t flow_key = 0);

    // -- observers ---------------------------------------------------------

    /// Running count, kept by the head-merge update after every bank op.
    /// Like the head merge it is exact between ops; after a
    /// fault::FaultError, recover() re-derives both.
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /// Exact under kFlowHash: inserts spill around a capacity-full bank,
    /// so this is true only when *every* routable bank is full (a further
    /// insert must throw on capacity). Under kTagInterleave placement is
    /// structural — no routing around a full bank — so this stays the
    /// conservative "some bank is full: a further insert *may* throw".
    bool full() const;
    /// Sum over routable (kActive) banks. A draining bank's slots are no
    /// longer offered to new tags, so they drop out here; size() still
    /// counts its entries until the drain completes, and can therefore
    /// transiently exceed capacity() mid-migration.
    std::size_t capacity() const;

    /// Physical bank count, detached tombstones included — indices,
    /// per-bank metric names, and the SRAM inventory stay stable across
    /// resharding.
    unsigned num_banks() const { return static_cast<unsigned>(banks_.size()); }
    /// Banks currently routable by bank_for.
    unsigned active_banks() const { return static_cast<unsigned>(routing_.size()); }
    BankState bank_state(unsigned i) const { return banks_[i].state; }
    /// Online add/remove and degraded-mode drain need cross-bank
    /// migration, which the interleave placement rules out structurally.
    bool reshard_supported() const { return !interleave_; }

    /// Bank an insert of (tag, flow_key) lands in *right now*. Under
    /// kFlowHash this is the routing table's pick for the flow, spilled
    /// deterministically to the next non-full active bank when the
    /// primary is capacity-full — i.e. a deterministic function of the
    /// configuration, the live routing table, and bank occupancy, exposed
    /// so conformance oracles can predict placements without replicating
    /// the selector. Under kTagInterleave it is the pure tag mod N.
    unsigned bank_for(std::uint64_t tag, std::uint64_t flow_key = 0) const {
        if (interleave_) return static_cast<unsigned>(tag & mask_);
        return flow_bank_for(flow_key);
    }
    TagSorter& bank(unsigned i) { return *banks_[i].sorter; }
    const TagSorter& bank(unsigned i) const { return *banks_[i].sorter; }
    std::uint64_t bank_ops(unsigned i) const { return banks_[i].ops; }
    /// Modeled queueing spent waiting on bank `i` alone (the aggregate is
    /// ShardedStats::bank_wait_cycles) — the rebalancer's skew signal.
    std::uint64_t bank_wait_cycles(unsigned i) const { return banks_[i].wait_cycles; }
    /// Reconstruct the aggregate-level tag for bank `i`'s stored value
    /// (undoes the interleave compression; identity under kFlowHash).
    /// Lets oracles absorb bank contents without re-deriving the encoding.
    std::uint64_t global_tag(std::uint64_t local, unsigned i) const {
        return to_global(local, i);
    }

    /// Largest logical tag span the aggregate accepts (N x the bank span
    /// under interleave; the bank span under flow hashing).
    std::uint64_t window_span() const;

    const ShardedStats& stats() const { return stats_; }

    /// Makespan of the overlapped schedule: the cycle the last modeled
    /// bank engagement retires. The sustained-throughput numerator.
    std::uint64_t modeled_cycles() const;
    /// modeled_cycles() / ops — approaches the per-bank initiation
    /// interval at N=1 and 1.0 once N >= II under a saturating stream.
    double modeled_cycles_per_op() const;
    /// sequential_cycles / modeled_cycles: how much single-engine time the
    /// bank overlap bought.
    double overlap_factor() const;
    unsigned pipeline_interval() const { return ii_; }

    /// Scrub every bank back to consistency after a fault. Degraded mode:
    /// a flow-hash bank whose scrub escalated to a full rebuild
    /// (uncorrectable damage) is fenced out of the routing table and
    /// drained into its neighbours via the migration machinery, then
    /// detached — instead of staying in rotation with suspect memory.
    /// A drain that stalls (no bank can accept the head) leaves the bank
    /// fenced; an attached ReshardController keeps pumping it with stolen
    /// cycles on later ops. Interleaved sorters keep the original
    /// scrub-everything behaviour. Returns true — scrubbing cannot fail.
    bool recover();

    /// Observe every completed migration move (controller pumps and
    /// degraded-mode drains alike). Conformance oracles mirror moves from
    /// here; pass nullptr to detach.
    void set_move_listener(std::function<void(const MoveRecord&)> listener) {
        move_listener_ = std::move(listener);
    }

    /// Register aggregate counters/gauges as `<prefix>.*` and per-bank
    /// rows as `<prefix>.bank<i>.{ops,wait_cycles,occupancy,state}` for
    /// the banks existing at registration time (banks added online later
    /// show up in the live dashboard's bank rows, not here).
    void register_metrics(obs::MetricsRegistry& registry,
                          const std::string& prefix = "sharded") const;

private:
    friend class ReshardController;

    /// bank_for under kFlowHash: the routing table's pick, spilled
    /// around a capacity-full bank.
    unsigned flow_bank_for(std::uint64_t flow_key) const;
    std::uint64_t to_local(std::uint64_t tag) const;
    std::uint64_t to_global(std::uint64_t local, unsigned bank) const;
    /// Re-read bank `i`'s head register and occupancy and update the
    /// comparator winner (host-side model of the head-merge tree update).
    void refresh_head(unsigned i);
    /// Re-pick the winner from every bank's cached head (the winner's own
    /// head rose or emptied).
    void sweep_heads();
    /// One modeled bank engagement in the current arrival slot; returns
    /// its issue cycle.
    std::uint64_t engage_bank(unsigned bank, std::uint64_t arrival);
    /// Close the current op: advance the arrival counter, record latency.
    void finish_op(std::uint64_t issue_cycle, std::uint64_t measured_cycles);
    /// Give an attached controller its stolen-cycle slot after a datapath op.
    void notify_op();

    // -- resharding primitives (driven by the friend ReshardController
    //    and by recover()'s degraded mode; kFlowHash only) ----------------
    /// Sorted active bank indices — the flow-hash routing table.
    void rebuild_routing();
    /// Append a fresh kActive bank ("bank<i>."-scoped SRAMs); returns its
    /// index. Requires reshard_supported().
    unsigned grow_bank();
    /// kActive -> kDraining: remove bank `i` from the routing table while
    /// the head merge keeps serving its entries (dual ownership). Refuses
    /// to fence the last routable bank. Returns whether the state changed.
    bool fence_bank(unsigned i);
    /// kDraining + empty -> kDetached tombstone. Returns whether it fired.
    bool maybe_detach(unsigned i);
    /// One migration step: pop bank `from`'s minimum and re-insert it into
    /// the first routable bank that can accept it (deterministic routing
    /// scan). Steals one engagement slot from both banks and bills the
    /// behavioural cycles to migration_cycles, not sequential_cycles.
    /// Returns nullopt — and counts a migration stall — when the source is
    /// empty or no destination can take the tag right now.
    std::optional<MoveRecord> migrate_from(unsigned from);

    /// Everything the datapath keeps per bank, in one record so an op
    /// touches one host cache line of wrapper state for its bank.
    struct Bank {
        explicit Bank(std::unique_ptr<TagSorter> s) : sorter(std::move(s)) {}

        std::unique_ptr<TagSorter> sorter;
        std::optional<std::uint64_t> head;  ///< cached global head register
        std::size_t size = 0;               ///< cached occupancy
        std::uint64_t free_at = 0;          ///< arbiter: pipeline free cycle
        std::uint64_t ops = 0;
        std::uint64_t wait_cycles = 0;
        BankState state = BankState::kActive;
    };

    // Datapath state first, so an op's wrapper bookkeeping spans as few
    // host cache lines as it can.
    std::vector<Bank> banks_;
    hw::Clock& clock_;
    bool interleave_;      ///< BankSelect::kTagInterleave
    unsigned shift_ = 0;   ///< log2(num_banks) (interleave compression)
    unsigned ii_ = 4;      ///< per-bank initiation interval
    std::uint64_t mask_ = 0;

    // Head-merge state: the current winner and its head, and the total
    // entry count (the sum of the banks' cached occupancies).
    int min_bank_ = -1;
    std::uint64_t min_head_ = 0;  ///< banks_[min_bank_].head when min_bank_ >= 0
    std::size_t size_ = 0;

    // Arbiter state.
    std::uint64_t arrivals_ = 0;  ///< ops offered (1 per cycle)
    std::uint64_t makespan_ = 0;

    ReshardController* controller_ = nullptr;
    ShardedStats stats_;

    TagSorter::Config bank_config_;  ///< grow_bank builds new banks from it
    hw::Simulation& sim_;

    // Resharding state.
    std::vector<unsigned> routing_;  ///< sorted active bank indices
    std::function<void(const MoveRecord&)> move_listener_;
};

static_assert(SorterContract<ShardedSorter>);

}  // namespace wfqs::core
