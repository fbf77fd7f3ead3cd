// The multi-bit search tree (trie) of §III-A: stores one presence marker
// per representable tag value and answers "closest existing value ≤ v"
// in a fixed number of cycles — one node read per level plus one
// write-back cycle.
//
// Timing model (matches the paper's pipeline): every search or
// search-and-insert advances the shared clock once per level (the node
// read + matching circuit evaluation) and once more for the write-back,
// so the paper's 3-level tree takes 3 + 1 = 4 cycles per tag — exactly
// the throughput of the linked-list tag store it feeds.
//
// Storage follows the silicon: shallow levels live in registers (the
// paper's first two levels, 272 bits), deep levels in single-port SRAM
// (the 4-kbit third level). Sector invalidation (Fig. 6) clears a root
// bit and flash-clears every descendant node in a single cycle.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "hw/simulation.hpp"
#include "matcher/matcher.hpp"
#include "tree/geometry.hpp"

namespace wfqs::tree {

struct TreeSearchStats {
    std::uint64_t searches = 0;
    std::uint64_t node_lookups = 0;     ///< matcher evaluations (Table I accesses)
    std::uint64_t backup_descents = 0;  ///< searches that needed the backup path
    std::uint64_t worst_node_lookups = 0;
};

class MultibitTree {
public:
    struct Config {
        TreeGeometry geometry = TreeGeometry::paper();
        /// Levels >= this index are backed by SRAM; shallower levels are
        /// registers. The paper keeps levels 0-1 in registers and level 2
        /// in SRAM.
        unsigned first_sram_level = 2;
    };

    MultibitTree(const Config& config, hw::Simulation& sim,
                 matcher::MatcherEngine& matcher);

    const TreeGeometry& geometry() const { return config_.geometry; }

    /// Closest marked value ≤ `value`, or nullopt if no such marker
    /// exists. Advances the clock one cycle per level.
    std::optional<std::uint64_t> closest_leq(std::uint64_t value);

    /// One-pass search + marker insert (the sorter's hot path): returns
    /// the closest marked value ≤ `value` *before* the insert, then marks
    /// `value`. Costs levels+1 cycles: L reads plus one write-back cycle
    /// (at most one node per level changes, all in distinct memories).
    /// `*planted` (when given) is set once the write-back completes: true
    /// iff the leaf marker was fresh rather than a duplicate; it is left
    /// untouched if the walk throws first.
    std::optional<std::uint64_t> search_and_insert(std::uint64_t value,
                                                   bool* planted = nullptr);

    /// Set the marker for `value` (idempotent).
    void insert(std::uint64_t value);

    /// Clear the marker for `value`, erasing emptied nodes bottom-up.
    /// One cycle: each level memory sees at most one read and one write,
    /// absorbed by the banked node memories.
    void erase(std::uint64_t value);

    /// Invalidate root sector `sector` (Fig. 6): the root bit and every
    /// descendant node are cleared in one cycle (register clear plus one
    /// flash-clear per SRAM level).
    void clear_sector(unsigned sector);

    /// Test/inspection helpers: no clock, no port accounting. Words are
    /// the ECC-corrected view when the node memory is protected.
    bool contains(std::uint64_t value) const;
    bool empty() const { return marker_count_ == 0; }
    std::uint64_t marker_count() const { return marker_count_; }
    std::uint64_t node_word(unsigned level, std::uint64_t index) const;

    /// Invoke `fn(index, word)` for every nonzero node word at `level`
    /// (ECC-corrected view; no clock, no ports). Register levels scan in
    /// full; SRAM levels visit only live backing pages, so audits and
    /// repairs stay proportional to marker population even at 32-bit tag
    /// widths.
    void for_each_nonzero_node(
        unsigned level,
        const std::function<void(std::uint64_t, std::uint64_t)>& fn) const;
    /// Same, restricted to node indices in [first, first + count).
    void for_each_nonzero_node(
        unsigned level, std::uint64_t first, std::uint64_t count,
        const std::function<void(std::uint64_t, std::uint64_t)>& fn) const;

    // -- integrity surface (scrubber/rebuild; maintenance, no cycles) -----

    /// Wipe every marker (rebuild path).
    void clear_all();

    /// Run hw::Sram::relaunder on every SRAM-backed level (scrub pass).
    void relaunder();

    /// Maintenance: force the *leaf* marker for `value` on or off (no
    /// cycles, no interior update, marker_count_ untouched). Callers fix
    /// the interior and the count with repair_from_leaves() afterwards.
    void set_leaf_marker(std::uint64_t value, bool present);

    /// Recompute every interior level from the leaf level: a parent bit is
    /// set iff the child node below it holds any marker. Repairs upward
    /// inconsistencies (a flipped interior bit) using the leaves as ground
    /// truth, and resynchronises marker_count_. Leaf corruption itself is
    /// *not* repairable here — the leaves are the authority; the scrubber
    /// cross-checks them against the translation table instead.
    void repair_from_leaves();

    const TreeSearchStats& stats() const { return stats_; }
    void reset_stats() { stats_ = {}; }

    /// Table-driven TreeGeometry::literal / node_index: O(1) per call,
    /// where the geometry's versions loop over the levels.
    std::uint32_t literal(std::uint64_t value, unsigned level) const {
        return static_cast<std::uint32_t>((value >> level_[level].shift) &
                                          level_[level].literal_mask);
    }
    std::uint64_t node_index(std::uint64_t value, unsigned level) const {
        return value >> (level_[level].shift + level_[level].bits);
    }

private:
    /// validate() allows at most 32 one-bit levels.
    static constexpr unsigned kMaxLevels = 32;
    /// Per-level addressing, precomputed from the geometry so the hot path
    /// never loops over the levels to find a literal's position.
    struct LevelTable {
        unsigned shift = 0;              ///< tag bits below this level's literal
        unsigned bits = 0;               ///< literal width
        unsigned branching = 0;          ///< 1 << bits: node width
        std::uint64_t literal_mask = 0;  ///< low_mask(bits)
        std::uint64_t node_mask = 0;     ///< low_mask(branching): a node's bits
        hw::Sram* sram = nullptr;        ///< backing memory; nullptr: registers
        std::size_t reg_base = 0;        ///< register level: first word in registers_
    };
    /// Datapath node access: a register, or one port-charged SRAM access.
    std::uint64_t read_node(unsigned level, std::uint64_t index) {
        const LevelTable& lt = level_[level];
        if (lt.sram == nullptr) return registers_[lt.reg_base + index];
        return lt.sram->read(index);
    }
    void write_node(unsigned level, std::uint64_t index, std::uint64_t word) {
        const LevelTable& lt = level_[level];
        if (lt.sram == nullptr) {
            registers_[lt.reg_base + index] = word;
            return;
        }
        lt.sram->write(index, word);
    }
    /// Maintenance write: no ports, no cycles, re-encodes check bits.
    void poke_node(unsigned level, std::uint64_t index, std::uint64_t word);
    std::optional<std::uint64_t> do_walk(std::uint64_t value, bool do_insert,
                                         bool* planted);
    /// First node word of register level `level`.
    std::uint64_t* regs(unsigned level) { return registers_.data() + level_[level].reg_base; }
    const std::uint64_t* regs(unsigned level) const {
        return registers_.data() + level_[level].reg_base;
    }

    Config config_;
    unsigned levels_ = 0;
    std::uint64_t capacity_ = 0;
    std::array<LevelTable, kMaxLevels> level_{};
    matcher::MatcherEngine& matcher_;
    /// The behavioural engine runs inline (matcher::behavioral_match);
    /// any other engine goes through its virtual match().
    bool behavioral_matcher_;
    /// Every register level's node words, level after level (levels <
    /// first_sram_level; the deeper levels live in SRAM).
    std::vector<std::uint64_t> registers_;
    hw::Clock& clock_;
    std::uint64_t marker_count_ = 0;
    TreeSearchStats stats_;
};

}  // namespace wfqs::tree
