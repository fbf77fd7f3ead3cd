#include "tree/multibit_tree.hpp"

#include <algorithm>
#include <string>

#include "common/assert.hpp"
#include "common/bits.hpp"
#include "fault/errors.hpp"

namespace wfqs::tree {

namespace {
// The paper's bottom tree level is split into 32 small distributed memory
// blocks, so several distinct nodes can be accessed in one cycle (primary
// and backup descents run in parallel, and background marker erasure
// overlaps the pipeline). Four concurrent accesses per cycle models that
// banking headroom.
constexpr unsigned kTreeSramPorts = 4;

// Per-block word budget of the simulated SRAM inventory: 2^28 words is
// the largest level the memory model will stand up (the 32-bit
// uniform-8x4 leaf). Degenerate geometries that blow past it — e.g.
// binary(32)'s 2^31-word leaf — are rejected with a typed error at
// construction, before any allocation is attempted.
constexpr std::uint64_t kMaxNodeWords = std::uint64_t{1} << 28;
}  // namespace

MultibitTree::MultibitTree(const Config& config, hw::Simulation& sim,
                           matcher::MatcherEngine& matcher)
    : config_(config),
      matcher_(matcher),
      behavioral_matcher_(matcher.behavioral()),
      clock_(sim.clock()) {
    config_.geometry.validate();
    WFQS_REQUIRE(config_.first_sram_level >= 1,
                 "the root level must be registers (it is read every cycle)");
    const TreeGeometry& g = config_.geometry;
    levels_ = g.levels;
    capacity_ = g.capacity();
    for (unsigned l = 0; l < g.levels; ++l) {
        const unsigned bits = g.level_bits(l);
        LevelTable& lt = level_[l];
        lt = {g.suffix_bits(l) - bits, bits, g.branching(l), low_mask(bits),
              low_mask(g.branching(l))};
        const std::uint64_t nodes = g.nodes_at_level(l);
        if (nodes > kMaxNodeWords)
            throw fault::SramInventoryError("tree-level-" + std::to_string(l),
                                            nodes, kMaxNodeWords);
        if (l < config_.first_sram_level) {
            lt.reg_base = registers_.size();
            registers_.resize(registers_.size() + nodes, 0);
        } else {
            lt.sram = &sim.make_sram("tree-level-" + std::to_string(l), nodes,
                                     g.branching(l), kTreeSramPorts);
        }
    }
}

std::uint64_t MultibitTree::node_word(unsigned level, std::uint64_t index) const {
    const LevelTable& lt = level_[level];
    if (lt.sram == nullptr) return registers_[lt.reg_base + index];
    return lt.sram->peek_corrected(index);
}

void MultibitTree::poke_node(unsigned level, std::uint64_t index, std::uint64_t word) {
    const LevelTable& lt = level_[level];
    if (lt.sram == nullptr) {
        registers_[lt.reg_base + index] = word;
        return;
    }
    lt.sram->poke(index, word);
}

bool MultibitTree::contains(std::uint64_t value) const {
    WFQS_ASSERT(value < capacity_);
    for (unsigned l = 0; l < levels_; ++l) {
        const std::uint64_t word = node_word(l, node_index(value, l));
        if (!bit_is_set(word, literal(value, l))) return false;
    }
    return true;
}

namespace {

/// State of the walk shared by closest_leq and search_and_insert.
struct Walk {
    enum class Mode { Exact, MaxDescent, Dead };
    Mode mode = Mode::Exact;
    std::uint64_t node_idx = 0;   ///< node to read at the current level
    std::uint64_t prefix = 0;     ///< literals chosen so far
    // Shadow (backup) descent: runs one node per level alongside the
    // primary, ready to take over if the primary search fails (Fig. 5).
    bool shadow_active = false;
    std::uint64_t shadow_idx = 0;
    std::uint64_t shadow_prefix = 0;
};

}  // namespace

std::optional<std::uint64_t> MultibitTree::closest_leq(std::uint64_t value) {
    return do_walk(value, /*do_insert=*/false, nullptr);
}

std::optional<std::uint64_t> MultibitTree::search_and_insert(std::uint64_t value,
                                                             bool* planted) {
    return do_walk(value, /*do_insert=*/true, planted);
}

std::optional<std::uint64_t> MultibitTree::do_walk(std::uint64_t value, bool do_insert,
                                                   bool* planted) {
    WFQS_ASSERT(value < capacity_);
    ++stats_.searches;

    Walk w;
    bool used_backup = false;
    // Per-level info for the insert write-back: the words read on the
    // exact path. Levels >= exact_depth were never read on that path (the
    // walk had already deviated) and are never read back, so the array is
    // left uninitialised. Tracked out of band: a full 64-way node word is
    // ~0, so no word value can double as a "not visited" sentinel.
    std::array<std::uint64_t, kMaxLevels> exact_words;
    unsigned exact_depth = 0;

    for (unsigned l = 0; l < levels_; ++l) {
        // Branching and literal width of *this* level — heterogeneous
        // geometries change both per level.
        const LevelTable& lt = level_[l];
        const unsigned B = lt.branching;
        const unsigned lbits = lt.bits;
        // Shadow step: read the shadow node and follow its largest literal.
        int shadow_literal = -1;
        if (w.shadow_active) {
            const std::uint64_t sword = read_node(l, w.shadow_idx);
            shadow_literal = highest_set(sword & lt.node_mask);
            if (shadow_literal < 0) {
                throw fault::IntegrityError(
                    fault::IntegrityKind::kTreeInvariant,
                    "marked node has empty child (shadow descent, level " +
                        std::to_string(l) + ")");
            }
        }

        if (w.mode == Walk::Mode::Exact) {
            const std::uint64_t word = read_node(l, w.node_idx);
            exact_words[l] = word;
            exact_depth = l + 1;
            const unsigned target = literal(value, l);
            const matcher::MatchResult m =
                behavioral_matcher_ ? matcher::behavioral_match(word, target, B)
                                    : matcher_.match(word, target, B);
            ++stats_.node_lookups;

            if (m.primary == static_cast<int>(target)) {
                // Exact literal present: descend, and re-aim the shadow at
                // the (deeper, therefore closer) backup literal if one
                // exists in this node.
                if (m.backup >= 0) {
                    w.shadow_active = true;
                    w.shadow_idx = w.node_idx * B + static_cast<unsigned>(m.backup);
                    w.shadow_prefix =
                        (w.prefix << lbits) | static_cast<unsigned>(m.backup);
                } else if (w.shadow_active) {
                    w.shadow_idx = w.shadow_idx * B + static_cast<unsigned>(shadow_literal);
                    w.shadow_prefix = (w.shadow_prefix << lbits) |
                                      static_cast<unsigned>(shadow_literal);
                }
                w.node_idx = w.node_idx * B + target;
                w.prefix = (w.prefix << lbits) | target;
            } else if (m.primary >= 0) {
                // Next-smallest literal: every deeper level follows its
                // maximum literal; the primary can no longer fail, so the
                // shadow is dropped.
                w.mode = Walk::Mode::MaxDescent;
                w.shadow_active = false;
                w.node_idx = w.node_idx * B + static_cast<unsigned>(m.primary);
                w.prefix = (w.prefix << lbits) |
                           static_cast<unsigned>(m.primary);
            } else {
                // Primary search failed (Fig. 5 point "A"): hand over to
                // the shadow, which has already descended to this level.
                if (!w.shadow_active) {
                    w.mode = Walk::Mode::Dead;
                } else {
                    used_backup = true;
                    w.mode = Walk::Mode::MaxDescent;
                    w.node_idx = w.shadow_idx * B + static_cast<unsigned>(shadow_literal);
                    w.prefix = (w.shadow_prefix << lbits) |
                               static_cast<unsigned>(shadow_literal);
                    w.shadow_active = false;
                }
            }
        } else if (w.mode == Walk::Mode::MaxDescent) {
            const std::uint64_t word = read_node(l, w.node_idx);
            const int max_literal = highest_set(word & lt.node_mask);
            if (max_literal < 0) {
                throw fault::IntegrityError(
                    fault::IntegrityKind::kTreeInvariant,
                    "marked node has empty child (max descent, level " +
                        std::to_string(l) + ")");
            }
            w.node_idx = w.node_idx * B + static_cast<unsigned>(max_literal);
            w.prefix = (w.prefix << lbits) | static_cast<unsigned>(max_literal);
        }
        clock_.advance();  // one pipeline cycle per tree level
    }

    if (used_backup) ++stats_.backup_descents;
    stats_.worst_node_lookups = std::max<std::uint64_t>(stats_.worst_node_lookups,
                                                        levels_);

    std::optional<std::uint64_t> result;
    if (w.mode != Walk::Mode::Dead) result = w.prefix;
    // A found value must be ≤ the query and, when Dead, nothing ≤ exists.
    WFQS_ASSERT(!result || *result <= value);

    if (do_insert) {
        // Write-back cycle: at most one node per level changes; levels live
        // in distinct memories, so all writes share one cycle.
        for (unsigned l = 0; l < levels_; ++l) {
            const unsigned bit = literal(value, l);
            const std::uint64_t idx = node_index(value, l);
            if (l < exact_depth) {
                // Node was read on the exact path: OR the bit in, keeping
                // any sibling markers.
                if (!bit_is_set(exact_words[l], bit))
                    write_node(l, idx, set_bit(exact_words[l], bit));
            } else {
                // Below the deviation point the insert path is untouched
                // territory: the node holds no markers yet.
                write_node(l, idx, std::uint64_t{1} << bit);
            }
        }
        // Marker count: a fresh leaf bit means a new marker.
        const bool already_present =
            exact_depth == levels_ &&
            bit_is_set(exact_words[levels_ - 1], literal(value, levels_ - 1));
        if (!already_present) ++marker_count_;
        if (planted != nullptr) *planted = !already_present;
        clock_.advance();
    }
    return result;
}

void MultibitTree::insert(std::uint64_t value) { (void)search_and_insert(value); }

void MultibitTree::erase(std::uint64_t value) {
    WFQS_ASSERT(value < capacity_);
    // Background maintenance overlapped with the pipeline: reads and
    // writes are charged to the current cycle (the banked level memories
    // absorb them); the clock is advanced by the caller's FSM.
    std::array<std::uint64_t, kMaxLevels> words;  // levels < levels_ all written below
    for (unsigned l = 0; l < levels_; ++l) words[l] = read_node(l, node_index(value, l));
    if (!bit_is_set(words[levels_ - 1], literal(value, levels_ - 1))) {
        throw fault::IntegrityError(fault::IntegrityKind::kTreeInvariant,
                                    "erasing a marker that is not present (value " +
                                        std::to_string(value) + ")");
    }

    for (unsigned l = levels_; l-- > 0;) {
        const std::uint64_t cleared = clear_bit(words[l], literal(value, l));
        write_node(l, node_index(value, l), cleared);
        if (cleared != 0) break;  // node still has markers: ancestors keep their bit
    }
    // Saturating: corruption can make the count drift from the markers;
    // repair_from_leaves() resynchronises it.
    if (marker_count_ > 0) --marker_count_;
    // The whole read-modify-write touches each level memory at most twice,
    // which the banked level memories absorb in a single cycle.
    clock_.advance();
}

void MultibitTree::clear_sector(unsigned sector) {
    const TreeGeometry& g = config_.geometry;
    const unsigned B = g.branching();
    WFQS_REQUIRE(sector < B, "sector index exceeds root width");

    // Count the markers that disappear so marker_count_ stays exact. The
    // sweep only visits nonzero leaf words (live backing pages on paged
    // SRAM levels), so invalidating a sector of a 2^26-node leaf costs
    // time proportional to its markers, not its address space.
    const unsigned leaf = g.levels - 1;
    std::uint64_t removed = 0;
    if (g.levels == 1) {
        removed = bit_is_set(node_word(0, 0), sector) ? 1 : 0;
    } else {
        const std::uint64_t leaf_lo = std::uint64_t{sector} * (g.nodes_at_level(leaf) / B);
        for_each_nonzero_node(leaf, leaf_lo, g.nodes_at_level(leaf) / B,
                              [&](std::uint64_t, std::uint64_t word) {
                                  removed += static_cast<std::uint64_t>(
                                      std::popcount(word));
                              });
    }

    // One cycle: clear the root bit and flash-clear every descendant node.
    regs(0)[0] = clear_bit(regs(0)[0], sector);
    for (unsigned l = 1; l < g.levels; ++l) {
        const std::uint64_t lo = std::uint64_t{sector} * g.nodes_at_level(l) / B;
        const std::uint64_t count = g.nodes_at_level(l) / B;
        if (level_[l].sram == nullptr)
            std::fill_n(regs(l) + lo, count, 0);
        else
            level_[l].sram->flash_clear(lo, count);
    }
    clock_.advance();
    marker_count_ -= std::min(marker_count_, removed);  // saturating under corruption
}

void MultibitTree::relaunder() {
    for (unsigned l = 0; l < levels_; ++l)
        if (level_[l].sram != nullptr) level_[l].sram->relaunder();
}

void MultibitTree::for_each_nonzero_node(
    unsigned level,
    const std::function<void(std::uint64_t, std::uint64_t)>& fn) const {
    for_each_nonzero_node(level, 0, config_.geometry.nodes_at_level(level), fn);
}

void MultibitTree::for_each_nonzero_node(
    unsigned level, std::uint64_t first, std::uint64_t count,
    const std::function<void(std::uint64_t, std::uint64_t)>& fn) const {
    if (level_[level].sram == nullptr) {
        const std::uint64_t* words = regs(level);
        for (std::uint64_t i = first; i < first + count; ++i)
            if (words[i] != 0) fn(i, words[i]);
        return;
    }
    level_[level].sram->for_each_nonzero_word_in_range(first, count, fn);
}

void MultibitTree::clear_all() {
    std::fill(registers_.begin(), registers_.end(), 0);
    for (unsigned l = 0; l < levels_; ++l)
        if (level_[l].sram != nullptr) level_[l].sram->wipe();
    marker_count_ = 0;
}

void MultibitTree::set_leaf_marker(std::uint64_t value, bool present) {
    WFQS_ASSERT(value < capacity_);
    const unsigned leaf = levels_ - 1;
    const std::uint64_t idx = node_index(value, leaf);
    const unsigned bit = literal(value, leaf);
    const std::uint64_t word = node_word(leaf, idx);
    const std::uint64_t updated = present ? set_bit(word, bit) : clear_bit(word, bit);
    if (updated != word) poke_node(leaf, idx, updated);
}

void MultibitTree::repair_from_leaves() {
    const TreeGeometry& g = config_.geometry;
    const unsigned leaf = g.levels - 1;

    // Leaves are the ground truth: count them, then rebuild every
    // interior level from scratch. Both passes visit only nonzero words
    // (and the interior pokes only touch words a live leaf implies), so
    // repair cost tracks marker population, not tag-space size.
    marker_count_ = 0;
    for_each_nonzero_node(leaf, [&](std::uint64_t, std::uint64_t word) {
        marker_count_ += static_cast<std::uint64_t>(
            std::popcount(word & low_mask(g.branching(leaf))));
    });
    for (unsigned l = 0; l < leaf; ++l) {
        if (level_[l].sram == nullptr)
            std::fill_n(regs(l), g.nodes_at_level(l), 0);
        else
            level_[l].sram->wipe();
    }
    for (unsigned l = leaf; l-- > 0;) {
        const unsigned child_b = g.branching(l);
        for_each_nonzero_node(l + 1, [&](std::uint64_t child, std::uint64_t word) {
            if ((word & low_mask(g.branching(l + 1))) == 0) return;
            const std::uint64_t parent = child / child_b;
            const unsigned bit = static_cast<unsigned>(child % child_b);
            const std::uint64_t parent_word = node_word(l, parent);
            if (!bit_is_set(parent_word, bit))
                poke_node(l, parent, set_bit(parent_word, bit));
        });
    }
}

}  // namespace wfqs::tree
