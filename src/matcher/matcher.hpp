// Public interface of the node matching circuitry.
//
// Every node of the multi-bit tree holds a W-bit presence word; inserting a
// tag asks each level's matcher for
//
//   primary = the highest set bit at or below the target literal
//             (exact match or next-smallest), and
//   backup  = the highest set bit strictly below the primary
//             (the paper's parallel secondary lookup, Fig. 5 point "B").
//
// The same function is provided two ways: a behavioural model (used by the
// cycle simulator for speed) and gate-level netlists of the five circuit
// variants studied in ref [13] (used to reproduce Figs. 7 and 8 and to
// cross-validate the behavioural model bit-for-bit).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/bits.hpp"

namespace wfqs::matcher {

/// Result of a node match; -1 means "not found".
struct MatchResult {
    int primary = -1;
    int backup = -1;

    friend bool operator==(const MatchResult&, const MatchResult&) = default;
};

/// Reference model: primary/backup via plain bit scans. Inline: the tree
/// runs it once per level of every walk.
inline MatchResult behavioral_match(std::uint64_t word, unsigned target,
                                    unsigned width) {
    WFQS_ASSERT(width >= 1 && width <= 64);
    WFQS_ASSERT(target < width);
    MatchResult r;
    r.primary = highest_set_at_or_below(word & low_mask(width), target);
    if (r.primary >= 0)
        r.backup = highest_set_below(word & low_mask(width),
                                     static_cast<unsigned>(r.primary));
    return r;
}

/// The five matching-circuit variants of ref [13], Figs. 7–8.
enum class MatcherKind {
    Ripple,
    Lookahead,
    BlockLookahead,
    SkipLookahead,
    SelectLookahead,
};

const std::vector<MatcherKind>& all_matcher_kinds();
std::string matcher_kind_name(MatcherKind kind);

/// Abstract engine the tree uses to run node matches, so the tree can be
/// driven either behaviourally or through an elaborated netlist.
class MatcherEngine {
public:
    virtual ~MatcherEngine() = default;
    virtual MatchResult match(std::uint64_t word, unsigned target, unsigned width) = 0;
    virtual std::string name() const = 0;
    /// True only for BehavioralMatcher: match() is exactly
    /// behavioral_match(), so a caller may run that inline instead of
    /// making the virtual call.
    bool behavioral() const { return behavioral_; }

protected:
    MatcherEngine() = default;
    explicit MatcherEngine(bool behavioral) : behavioral_(behavioral) {}

private:
    bool behavioral_ = false;
};

/// Behavioural engine (no netlist; O(1) per match).
class BehavioralMatcher final : public MatcherEngine {
public:
    BehavioralMatcher() : MatcherEngine(/*behavioral=*/true) {}
    MatchResult match(std::uint64_t word, unsigned target, unsigned width) override {
        return behavioral_match(word, target, width);
    }
    std::string name() const override { return "behavioral"; }
};

/// Netlist-backed engine: elaborates (and caches) one circuit per width and
/// evaluates it gate by gate for every match.
class NetlistMatcher final : public MatcherEngine {
public:
    explicit NetlistMatcher(MatcherKind kind);
    ~NetlistMatcher() override;
    MatchResult match(std::uint64_t word, unsigned target, unsigned width) override;
    std::string name() const override;

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

}  // namespace wfqs::matcher
