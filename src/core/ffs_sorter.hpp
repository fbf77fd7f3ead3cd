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
// direction (≤ 5 levels at the 28-bit cap), resolved with
// `std::countr_zero` / `std::countl_zero` (BMI `tzcnt`/`lzcnt` on x86).
//
// Two structural simplifications fall out of sort-at-insert on a host:
//
//  * Insert needs no tree search at all. The bitmap *is* the sorted set, so
//    storing a tag is: set one leaf bit (propagating into a summary word
//    only when a word transitions 0 → 1), and append to the value's FIFO
//    duplicate chain. The paper's insert-time lookup exists to maintain the
//    linked list's order under O(1) SRAM access; a flat bitmap gets order
//    for free.
//  * Only a pop that empties a value's chain pays a search (one successor
//    scan to find the new head). Everything else is O(1).
//
// Duplicate tags keep FIFO order through per-value chains: a fixed node
// pool (one node per capacity slot, 12 bytes each) plus an open-addressing
// hash table mapping physical value → {chain head, chain tail}. Memory is
// O(capacity + range/8), not O(range × capacity).
//
// Cycle accounting: this is a wall-clock backend. The `SorterStats` cycle
// totals and histograms stay zero — there is no modeled clock to bill — so
// the differ's cycle-closure check does not apply here (it gets a
// structural burst check instead; see tests/proptest/differ.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/sorter_contract.hpp"
#include "core/tag_sorter.hpp"  // SorterStats, TagSorter::Config
#include "fault/audit.hpp"
#include "obs/metrics.hpp"

namespace wfqs::core {

/// Bitmap level storage for the FFS sorter: dense vector up to
/// kDenseWords (every paper-scale geometry — keeps the hot successor
/// scan a plain array access), demand-allocated 4 KiB pages above it so
/// a 32-bit leaf level (2^26 words = 512 MiB dense) costs memory
/// proportional to the live value set. An absent page reads as zero.
class PagedWords {
public:
    static constexpr std::uint64_t kDenseWords = std::uint64_t{1} << 16;
    static constexpr unsigned kPageShift = 9;  ///< 512 words = 4 KiB/page
    static constexpr std::uint64_t kPageMask = (std::uint64_t{1} << kPageShift) - 1;

    explicit PagedWords(std::uint64_t words = 0)
        : words_(words), dense_(words <= kDenseWords) {
        if (dense_) data_.assign(static_cast<std::size_t>(words), 0);
    }

    std::uint64_t size() const { return words_; }
    bool dense() const { return dense_; }

    std::uint64_t get(std::uint64_t idx) const {
        if (dense_) return data_[static_cast<std::size_t>(idx)];
        const auto it = pages_.find(idx >> kPageShift);
        return it == pages_.end()
                   ? 0
                   : it->second[static_cast<std::size_t>(idx & kPageMask)];
    }

    /// Writable word (allocates the page in paged mode). Also the debug
    /// corruption hook: `level[w] ^= bit`.
    std::uint64_t& operator[](std::uint64_t idx) {
        if (dense_) return data_[static_cast<std::size_t>(idx)];
        auto& page = pages_[idx >> kPageShift];
        if (page.empty()) page.assign(std::size_t{1} << kPageShift, 0);
        return page[static_cast<std::size_t>(idx & kPageMask)];
    }

    void clear() {
        if (dense_)
            std::fill(data_.begin(), data_.end(), 0);
        else
            pages_.clear();
    }

    /// Visit every nonzero word (sound in paged mode because only writes
    /// allocate pages). Unordered across pages.
    void for_each_nonzero(
        const std::function<void(std::uint64_t, std::uint64_t)>& fn) const {
        if (dense_) {
            for (std::uint64_t w = 0; w < words_; ++w)
                if (data_[static_cast<std::size_t>(w)] != 0)
                    fn(w, data_[static_cast<std::size_t>(w)]);
            return;
        }
        for (const auto& [page_idx, page] : pages_) {
            const std::uint64_t base = page_idx << kPageShift;
            for (std::size_t i = 0; i < page.size(); ++i)
                if (page[i] != 0) fn(base + i, page[i]);
        }
    }

private:
    std::uint64_t words_ = 0;
    bool dense_ = true;
    std::vector<std::uint64_t> data_;
    std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> pages_;
};

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

    std::optional<SortedTag> peek_min() const;
    std::optional<SortedTag> pop_min();

    /// §III-C combined store + serve; precondition: non-empty (throws
    /// std::invalid_argument otherwise, like the model).
    SortedTag insert_and_pop(std::uint64_t tag, std::uint32_t payload);

    // -- integrity ---------------------------------------------------------

    /// Cross-check bitmap levels, duplicate chains, the free list, and the
    /// per-sector occupancy counters against each other. Pure inspection;
    /// never throws; only findings bump the `audits` counter. There is no
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

    /// Smallest set value ≥ `physical`, not wrapping past the top.
    std::optional<std::uint64_t> next_geq(std::uint64_t physical) const;
    /// Largest set value ≤ `physical` (the paper's "primary match").
    std::optional<std::uint64_t> closest_leq(std::uint64_t physical) const;

    // -- corruption hooks (integrity tests only; never the datapath) -------

    unsigned debug_level_count() const {
        return static_cast<unsigned>(levels_.size());
    }
    PagedWords& debug_level(unsigned level) { return levels_[level]; }
    std::uint32_t& debug_node_next(std::uint32_t node) {
        return nodes_[node].next;
    }
    std::uint64_t& debug_node_value(std::uint32_t node) {
        return nodes_[node].value;
    }
    std::uint32_t& debug_free_head() { return free_head_; }
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

    unsigned sector_of(std::uint64_t physical) const {
        return static_cast<unsigned>(physical / sector_size_);
    }

    // bitmap
    void bit_set(std::uint64_t p);
    void bit_clear(std::uint64_t p);
    bool bit_test(std::uint64_t p) const;

    // duplicate chains
    std::uint32_t chain_slot(std::uint64_t p) const;  ///< kNull when absent
    Chain* chain_find(std::uint64_t p);
    const Chain* chain_find(std::uint64_t p) const;
    Chain& chain_insert(std::uint64_t p);  ///< precondition: absent, has room
    void chain_erase(std::uint64_t p);

    std::uint32_t alloc_node(std::uint64_t value, std::uint32_t payload);
    void free_node(std::uint32_t n);

    Config config_;
    std::uint64_t range_;        ///< 2^tag_bits
    unsigned branching_;         ///< root sectors (Fig. 6)
    std::uint64_t sector_size_;  ///< range / branching
    std::size_t capacity_;
    std::uint32_t payload_mask_;
    std::uint32_t slot_mask_;  ///< chain-table size − 1 (power of two)

    /// levels_[0] is the leaf bitmap (one bit per value); each higher level
    /// summarises 64 words of the one below; the top level is one word.
    /// Wide geometries page the big lower levels (see PagedWords).
    std::vector<PagedWords> levels_;
    std::vector<Node> nodes_;
    std::vector<Chain> chains_;
    std::uint32_t free_head_ = kNull;
    std::vector<std::uint32_t> sector_occupancy_;  ///< live entries per sector

    std::size_t size_ = 0;
    std::uint64_t head_logical_ = 0;
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
