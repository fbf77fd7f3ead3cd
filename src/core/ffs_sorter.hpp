// Host-native FFS sorter — the paper's trie re-expressed as find-first-set
// words over CPU intrinsics (the Eiffel approach to software packet
// scheduling, PAPERS.md).
//
// `FfsSorter` satisfies the scalar sorter contract (`SorterContract`,
// core/sorter_contract.hpp) with the model's window, sector-invalidation
// and last-duplicate-retirement semantics, but with no `hw::Simulation`
// behind it. Where `TagSorter` walks SRAM-modeled tree nodes one matcher
// cycle at a time, this backend keeps one hierarchical bitmap: level 0
// has one bit per representable tag value, packed 64 values per word,
// and each summary level ORs 64 lower words into one bit. A
// successor scan is then at most one masked word test per level in each
// direction (six levels at the 32-bit wide32 geometry, two at paper12),
// resolved with `std::countr_zero` / `std::countl_zero` (BMI
// `tzcnt`/`lzcnt` on x86).
//
// Three structural simplifications fall out of sort-at-insert on a host:
//
//  * The minimum lives in a head register, outside the bitmap — the host
//    analogue of the circuit serving every retrieve from the head of its
//    sorted list. Peek is a register read; an insert into an empty sorter
//    and a pop that leaves it empty are register writes, and most of a
//    near-empty WFQ queue's ops are exactly those.
//  * Insert needs no tree search at all. The bitmap *is* the sorted set of
//    the queued (non-head) entries, so storing a tag is: set one leaf bit
//    (propagating into a summary word only when a word transitions
//    0 → 1), and append to the value's FIFO duplicate chain. The paper's
//    insert-time lookup exists to maintain the linked list's order under
//    O(1) SRAM access; a flat bitmap gets order for free.
//  * Only a pop whose head value has no queued duplicate pays a search
//    (one successor scan to refill the register). Everything else is O(1).
//
// Duplicate tags keep FIFO order through per-value chains: a node pool
// (12 bytes per queued entry) plus an open-addressing hash table mapping
// physical value → {chain head, chain tail}. Both start small and double
// on demand up to the capacity, and the bitmap levels are PagedArrays
// (common/paged_array.hpp) whose pages are freed as the window retires
// each sector, so construction and memory follow the live set rather than
// `capacity` or the 2^W value space. A doubling is the one op whose cost
// is not constant: at most log2(capacity) of them per sorter lifetime.
//
// Cycle accounting: this is a wall-clock backend. The `SorterStats` cycle
// totals and histograms stay zero — there is no modeled clock to bill — so
// the differ's cycle-closure check does not apply here (it gets a
// structural burst check instead; see tests/proptest/differ.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/paged_array.hpp"
#include "core/sorter_contract.hpp"
#include "core/tag_sorter.hpp"  // SorterStats, TagSorter::Config
#include "fault/audit.hpp"
#include "obs/metrics.hpp"

namespace wfqs::core {

class FfsSorter {
public:
    /// Same knobs, same defaults, same meaning as the cycle model — the
    /// conformance matrix in tests/proptest runs both from one Config.
    using Config = TagSorter::Config;

    static constexpr std::uint32_t kNull = 0xFFFF'FFFFu;  ///< null node index
    /// Null sentinel for *values*: distinct from every physical tag, even
    /// 2^32 − 1 in the full 32-bit tag space (a uint32 sentinel would
    /// collide with it).
    static constexpr std::uint64_t kNullValue = ~std::uint64_t{0};

    explicit FfsSorter(const Config& config);

    // -- datapath (SorterContract) ----------------------------------------

    /// Throws std::overflow_error when full (checked first), then
    /// std::invalid_argument on a window violation — before any mutation.
    void insert(std::uint64_t tag, std::uint32_t payload);

    std::optional<SortedTag> peek_min() const {
        if (empty()) return std::nullopt;
        return SortedTag{head_logical_, head_payload_};
    }
    std::optional<SortedTag> pop_min();

    /// §III-C combined store + serve; precondition: non-empty (throws
    /// std::invalid_argument otherwise, like the model).
    SortedTag insert_and_pop(std::uint64_t tag, std::uint32_t payload);

    // -- integrity ---------------------------------------------------------

    /// Cross-check bitmap levels, duplicate chains, the free list, the head
    /// register and the per-sector occupancy counters against each other.
    /// Pure inspection; never throws; only findings bump the `audits`
    /// counter. There is no
    /// repair path: this backend has no modeled memory and no fault
    /// injector, so only the corruption hooks below can damage it — the
    /// audit is the differ's invariant check.
    fault::AuditReport audit() const;

    // -- observers ---------------------------------------------------------

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    bool full() const { return size_ == capacity_; }
    std::size_t capacity() const { return capacity_; }
    const Config& config() const { return config_; }

    bool can_accept(std::uint64_t logical) const;
    std::uint64_t window_span() const { return range_ - sector_size_; }

    const SorterStats& stats() const { return stats_; }

    /// Same counter names as TagSorter::register_metrics so dashboards and
    /// benches are backend-agnostic; the cycle histograms export empty.
    void register_metrics(obs::MetricsRegistry& registry,
                          const std::string& prefix = "sorter") const;

    // -- host-native search primitives (fuzzed directly by tests) ----------

    /// Smallest set value ≥ `physical`, not wrapping past the top. The
    /// bitmap holds the queued values: every live value but the head's,
    /// unless the head has queued duplicates.
    std::optional<std::uint64_t> next_geq(std::uint64_t physical) const;
    /// Largest set value ≤ `physical` (the paper's "primary match").
    std::optional<std::uint64_t> closest_leq(std::uint64_t physical) const;

    // -- corruption hooks (integrity tests only; never the datapath) -------

    unsigned debug_level_count() const {
        return static_cast<unsigned>(levels_.size());
    }
    PagedArray<std::uint64_t>& debug_level(unsigned level) { return levels_[level]; }
    std::uint32_t& debug_node_next(std::uint32_t node) {
        return nodes_[node].next;
    }
    std::uint64_t& debug_node_value(std::uint32_t node) {
        return nodes_[node].value;
    }
    std::uint32_t& debug_free_head() { return free_head_; }
    std::uint64_t& debug_head_logical() { return head_logical_; }
    std::vector<std::uint32_t>& debug_sector_occupancy() {
        return sector_occupancy_;
    }
    /// Chain head/tail node index for `physical`, kNull when absent.
    std::uint32_t debug_chain_head(std::uint64_t physical) const;
    std::uint32_t debug_chain_tail(std::uint64_t physical) const;
    void debug_set_chain_tail(std::uint64_t physical, std::uint32_t node);

private:
    struct Node {
        std::uint32_t payload = 0;
        std::uint32_t next = kNull;
        std::uint64_t value = kNullValue;  ///< physical tag; kNullValue while free
    };
    struct Chain {
        std::uint64_t key = kNullValue;  ///< physical tag; kNullValue = empty slot
        std::uint32_t head = kNull;
        std::uint32_t tail = kNull;
    };

    void validate_incoming(std::uint64_t logical) const;
    void advance_window(std::uint64_t new_head_physical);
    /// The head at `head_physical` has departed and entries remain: load
    /// the register from the head value's chain, else from the successor.
    void refill_head(std::uint64_t head_physical);

    unsigned sector_of(std::uint64_t physical) const {
        return static_cast<unsigned>(physical >> sector_shift_);
    }

    // bitmap
    void bit_set(std::uint64_t p);
    void bit_clear(std::uint64_t p);
    bool bit_test(std::uint64_t p) const;

    // duplicate chains
    std::uint32_t home_slot(std::uint64_t p) const;
    std::uint32_t chain_slot(std::uint64_t p) const;  ///< kNull when absent
    /// Slot of the chain for `p`, created with its leaf marker when absent
    /// (`fresh` says which).
    std::uint32_t chain_for(std::uint64_t p, bool& fresh);
    void grow_chains();
    void erase_slot(std::uint32_t slot);
    /// Queue an entry behind every entry of its value; true when the value
    /// already had queued entries.
    bool append(std::uint64_t p, std::uint32_t payload);
    /// Queue an entry ahead of every entry of its value.
    void push_front(std::uint64_t p, std::uint32_t payload);
    /// Dequeue the oldest entry of the chain in `slot` (value `p`),
    /// retiring the chain and its leaf marker when it empties.
    std::uint32_t pop_front(std::uint32_t slot, std::uint64_t p);

    std::uint32_t alloc_node(std::uint64_t value, std::uint32_t payload);
    void free_node(std::uint32_t n);

    Config config_;
    std::uint64_t range_;        ///< 2^tag_bits
    std::uint64_t range_mask_;   ///< range − 1
    unsigned branching_;         ///< root sectors (Fig. 6)
    std::uint64_t sector_size_;  ///< range / branching
    unsigned sector_shift_;      ///< log2(sector_size_)
    std::size_t capacity_;
    std::uint32_t payload_mask_;

    /// levels_[0] is the leaf bitmap (one bit per value); each higher level
    /// summarises 64 words of the one below; the top level is one word.
    /// Holds the queued entries' values only (not the head register's).
    std::vector<PagedArray<std::uint64_t>> levels_;
    std::vector<Node> nodes_;    ///< grows by doubling up to capacity_
    std::vector<Chain> chains_;  ///< power-of-two size, at most a quarter full
    std::uint32_t slot_mask_ = 0;  ///< chains_.size() − 1
    std::uint32_t chain_count_ = 0;
    std::uint32_t free_head_ = kNull;
    /// Live entries per sector, the head register included.
    std::vector<std::uint32_t> sector_occupancy_;

    std::size_t size_ = 0;  ///< the head register plus the queued entries
    std::uint64_t head_logical_ = 0;
    std::uint32_t head_payload_ = 0;
    std::uint64_t max_logical_ = 0;
    unsigned lead_sector_ = 0;
    mutable SorterStats stats_;  ///< mutable: audit() is const but counts findings
    // Exported for name parity with the model backend; never sampled into.
    // Bin geometry mirrors TagSorter::hist_bins so per-backend exports of
    // one config stay mergeable/comparable.
    obs::CycleHistogram insert_cycles_hist_{
        0.0, static_cast<double>(TagSorter::hist_bins(config_)),
        TagSorter::hist_bins(config_)};
    obs::CycleHistogram pop_cycles_hist_{
        0.0, static_cast<double>(TagSorter::hist_bins(config_)),
        TagSorter::hist_bins(config_)};
    obs::CycleHistogram combined_cycles_hist_{
        0.0, static_cast<double>(TagSorter::hist_bins(config_)),
        TagSorter::hist_bins(config_)};
};

static_assert(SorterContract<FfsSorter>);

}  // namespace wfqs::core
