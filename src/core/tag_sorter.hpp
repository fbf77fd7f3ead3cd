// The tag sort/retrieve circuit (Fig. 3) — the paper's primary
// contribution. Glues together the three entities of the architecture:
//
//   multi-bit search tree  →  translation table  →  tag storage memory
//
// following the sort model of §II-C: the lookup work happens at *insert*
// time, so retrieving the smallest tag is a fixed-time register read
// regardless of how many tags are stored.
//
// Tag values. Callers pass *logical* tags: monotonically non-decreasing
// 64-bit virtual-time stamps. Internally a tag is wrapped to the tree's
// W-bit space (the paper's WFQ policy "resets the values it allocates to
// zero after a finite maximum value has been reached"), and the sorter
// maintains the moving-window discipline of Fig. 6: live tags must span
// less than the value range minus one root sector; the sector that falls
// behind the minimum is bulk-invalidated and its value space reused.
//
// Correctness refinement over the paper (documented in DESIGN.md): when
// the last stored duplicate of a value departs, its tree marker and
// translation entry are retired immediately (one overlapped cycle).
// Without this, a newly arriving tag equal to a just-departed value would
// chase a translation entry pointing at a freed slot. The paper's sector
// invalidation alone cannot prevent that, because WFQ may legally emit a
// tag between the departed minimum and the new minimum.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "core/sorter_contract.hpp"
#include "fault/audit.hpp"
#include "hw/simulation.hpp"
#include "matcher/matcher.hpp"
#include "obs/metrics.hpp"
#include "storage/linked_tag_store.hpp"
#include "storage/translation_table.hpp"
#include "tree/multibit_tree.hpp"

namespace wfqs::core {

struct SorterStats {
    std::uint64_t inserts = 0;
    std::uint64_t pops = 0;
    std::uint64_t combined_ops = 0;
    std::uint64_t duplicate_inserts = 0;       ///< tag value already present
    std::uint64_t marker_retirements = 0;      ///< last-duplicate cleanups
    std::uint64_t sector_invalidations = 0;    ///< Fig. 6 events
    std::uint64_t wrap_fallback_searches = 0;  ///< second tree pass at the seam
    std::uint64_t head_undercuts = 0;          ///< inserts below the minimum
    std::uint64_t worst_insert_cycles = 0;
    std::uint64_t worst_pop_cycles = 0;
    std::uint64_t insert_cycles_total = 0;
    std::uint64_t pop_cycles_total = 0;
    std::uint64_t audits = 0;              ///< integrity audits that found issues
    std::uint64_t repairs = 0;             ///< targeted repairs applied
    std::uint64_t rebuilds = 0;            ///< drain-and-resort recoveries
    std::uint64_t rebuild_recovered = 0;   ///< entries surviving a rebuild
    std::uint64_t rebuild_lost = 0;        ///< entries a rebuild could not save
};

class TagSorter {
public:
    struct Config {
        tree::TreeGeometry geometry = tree::TreeGeometry::paper();
        std::size_t capacity = 4096;  ///< linked-list slots (paper: external SRAM)
        unsigned payload_bits = 24;
        /// The paper assumes "the WFQ algorithm always produces tags
        /// larger than, or equal to, the smallest tag already in the
        /// system" (§III-A). Real WFQ can legally emit a tag *below* the
        /// current minimum (a fresh high-weight flow finishes before
        /// queued backlogged traffic — the very reason a sorter is
        /// needed). With `strict_min_discipline` such a tag throws
        /// (paper-exact behaviour); otherwise it becomes the new head.
        bool strict_min_discipline = false;
        /// Translation-table backing (see storage::TranslationTable):
        /// unset picks flat up to TranslationTable::kFlatTagBitsMax tag
        /// bits and the tiered hot-cache + bulk model above that.
        std::optional<bool> tiered_table{};
        unsigned table_hot_bits = 14;
        unsigned table_miss_penalty_cycles = 20;
    };

    /// Builds the circuit with the behavioural matcher (the cycle-level
    /// default). All memories are registered with `sim`'s inventory.
    TagSorter(const Config& config, hw::Simulation& sim);

    /// Same, but node matching runs through a caller-supplied engine
    /// (e.g. an elaborated select & look-ahead netlist).
    TagSorter(const Config& config, hw::Simulation& sim,
              matcher::MatcherEngine& matcher);

    // -- datapath ----------------------------------------------------------

    /// Sort `tag` into the store. Throws std::overflow_error when the tag
    /// memory is full and std::invalid_argument when the tag violates the
    /// window discipline (tag < current minimum, or further than one
    /// wrap-window ahead).
    void insert(std::uint64_t tag, std::uint32_t payload);

    /// Smallest stored tag — a head-register read: zero cycles, fixed time
    /// (the M_min feeding the scheduler's eq. (1)).
    std::optional<SortedTag> peek_min() const;

    /// Logical tag of the minimum alone: the head register, with no
    /// tag-store access (peek_min also reads the head slot's payload).
    std::optional<std::uint64_t> min_tag() const {
        if (empty()) return std::nullopt;
        return head_logical_;
    }

    /// Remove and return the smallest tag.
    std::optional<SortedTag> pop_min();

    /// §III-C simultaneous store + serve, four list cycles, reusing the
    /// departing slot. Precondition: non-empty.
    SortedTag insert_and_pop(std::uint64_t tag, std::uint32_t payload);

    // -- integrity (core/tag_sorter_integrity.cpp) -------------------------

    /// Cross-check the linked list, empty list, translation table, and
    /// tree markers against each other. Pure inspection: ECC-corrected
    /// peeks only, no cycles, no state change (a clean audit leaves even
    /// the stats untouched; only findings bump the `audits` counter).
    /// Never throws — corruption is returned as issues, not exceptions.
    fault::AuditReport audit() const;

    /// Fix every repairable issue in `report` using the linked list as
    /// ground truth: rewrite wrong/orphaned translation entries, retire
    /// orphaned tree markers and re-mark missing ones, rebuild interior
    /// tree levels from the leaves, and relink the empty list from the
    /// live-slot complement. Returns false (and does nothing) when the
    /// report contains an unrepairable issue — call rebuild() instead.
    bool repair(const fault::AuditReport& report);

    /// Last-resort drain-and-resort: salvage every list entry still
    /// reachable, wipe all three structures, and re-insert in sorted
    /// order. Logical tag continuity is preserved (the head keeps its
    /// logical value). Returns the number of entries lost.
    std::size_t rebuild();

    // -- observers ---------------------------------------------------------

    std::size_t size() const { return store_.size(); }
    bool empty() const { return store_.empty(); }
    bool full() const { return store_.full(); }
    std::size_t capacity() const { return store_.capacity(); }
    const Config& config() const { return config_; }

    /// Would `insert(tag, ...)` succeed right now? Pure inspection, zero
    /// cycles: the capacity check first (mirroring insert), then the
    /// moving-window discipline of Fig. 6. The sharded layer uses this to
    /// pick a migration destination without trial-and-error inserts.
    bool can_accept(std::uint64_t logical) const;

    /// Largest logical tag span the window discipline accepts.
    std::uint64_t window_span() const;

    const SorterStats& stats() const { return stats_; }
    const tree::MultibitTree& search_tree() const { return tree_; }
    const storage::LinkedTagStore& store() const { return store_; }
    const storage::TranslationTable& table() const { return table_; }

    /// Mutable entity access for corruption tests and the scrubber (the
    /// datapath never needs these).
    tree::MultibitTree& search_tree() { return tree_; }
    storage::LinkedTagStore& store() { return store_; }
    storage::TranslationTable& table() { return table_; }
    hw::Clock& clock() { return clock_; }

    /// Per-operation latency distributions in clock cycles, one bin per
    /// cycle. Always maintained (a handful of adds per op); the registry
    /// hook below exposes them without copying.
    const obs::CycleHistogram& insert_cycles() const { return insert_cycles_hist_; }
    const obs::CycleHistogram& pop_cycles() const { return pop_cycles_hist_; }
    const obs::CycleHistogram& combined_cycles() const { return combined_cycles_hist_; }

    /// Register every SorterStats counter and the three cycle histograms
    /// as `<prefix>.*` views in `registry` (snapshot-time sampling; the
    /// registry must not outlive this sorter).
    void register_metrics(obs::MetricsRegistry& registry,
                          const std::string& prefix = "sorter") const;

    /// One-bin-per-cycle histogram span for this configuration: the paper
    /// geometry's worst op is ~13 cycles, so 32 bins cover it with slack;
    /// deeper trees add up to 8 cycles per level and a tiered table adds
    /// the bulk-miss penalty — derive the top so no legal op ever lands
    /// in the clamped last bin. Rounded up to a multiple of 32 (the
    /// paper geometry stays at exactly 32 bins, keeping committed bench
    /// JSONs byte-identical). Public so the host backend can mirror the
    /// bin geometry (mergeable/ comparable exports).
    static std::size_t hist_bins(const Config& config);

private:
    fault::AuditReport audit_impl() const;
    std::uint64_t to_physical(std::uint64_t logical) const;
    void validate_incoming(std::uint64_t logical) const;
    /// Wrapped closest-match: primary pass at `physical`, fallback pass at
    /// the top of the value space when the window wraps the seam.
    /// `planted` reports whether the primary pass set a fresh marker (see
    /// MultibitTree::search_and_insert), even when a later check throws.
    std::optional<std::uint64_t> wrapped_search_insert(std::uint64_t physical,
                                                       bool* planted = nullptr);
    /// Marker/translation retirement for a departing tag (overlapped).
    void retire_if_last(std::uint64_t popped_physical, bool next_equal,
                        bool reinserted_same_value);
    void advance_window(std::uint64_t new_head_physical);

    Config config_;
    std::unique_ptr<matcher::BehavioralMatcher> owned_matcher_;
    tree::MultibitTree tree_;
    storage::TranslationTable table_;
    storage::LinkedTagStore store_;
    hw::Clock& clock_;

    std::uint64_t range_;             ///< 2^tag_bits
    std::uint64_t head_logical_ = 0;  ///< logical tag of the current head
    std::uint64_t max_logical_ = 0;   ///< largest live logical tag
    unsigned lead_sector_ = 0;        ///< root sector containing the head
    SorterStats stats_;
    // One-cycle bins over [0, hist_bins(config_)): exact distribution,
    // range derived from the geometry depth + table miss penalty so deep
    // or tiered configurations never clip into the last bin (the unit-bin
    // fast lane needs hi == bins, preserved by construction).
    obs::CycleHistogram insert_cycles_hist_{
        0.0, static_cast<double>(hist_bins(config_)), hist_bins(config_)};
    obs::CycleHistogram pop_cycles_hist_{
        0.0, static_cast<double>(hist_bins(config_)), hist_bins(config_)};
    obs::CycleHistogram combined_cycles_hist_{
        0.0, static_cast<double>(hist_bins(config_)), hist_bins(config_)};
};

static_assert(SorterContract<TagSorter>);

}  // namespace wfqs::core
