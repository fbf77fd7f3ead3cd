#include "core/ffs_sorter.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <string>
#include <utility>

#include "common/assert.hpp"
#include "common/bits.hpp"

namespace wfqs::core {

namespace {

/// 32-bit avalanche (Murmur3 finalizer): physical tags are sequential-ish,
/// so identity hashing would cluster the open-addressing probes.
inline std::uint32_t mix32(std::uint32_t x) {
    x ^= x >> 16;
    x *= 0x7feb352dU;
    x ^= x >> 15;
    x *= 0x846ca68bU;
    x ^= x >> 16;
    return x;
}

}  // namespace

FfsSorter::FfsSorter(const Config& config)
    : config_(config), range_(config.geometry.capacity()) {
    config_.geometry.validate();
    WFQS_REQUIRE(config_.capacity > 0, "sorter needs at least one slot");
    WFQS_REQUIRE(config_.capacity < kNull, "node indices are 32-bit");
    branching_ = config_.geometry.branching();
    sector_size_ = range_ / branching_;
    capacity_ = config_.capacity;
    payload_mask_ = static_cast<std::uint32_t>(low_mask(config_.payload_bits));

    std::uint64_t bits = range_;
    do {
        const std::uint64_t words = ceil_div(bits, 64);
        levels_.emplace_back(words);
        bits = words;
    } while (bits > 1);

    nodes_.resize(capacity_);
    const std::uint64_t slots =
        std::bit_ceil(std::max<std::uint64_t>(16, std::uint64_t{capacity_} * 2));
    chains_.resize(static_cast<std::size_t>(slots));
    slot_mask_ = static_cast<std::uint32_t>(slots - 1);
    sector_occupancy_.resize(branching_, 0);
    // Every node starts on the free list, in index order.
    for (std::size_t i = 0; i < capacity_; ++i)
        nodes_[i].next = i + 1 < capacity_ ? static_cast<std::uint32_t>(i + 1) : kNull;
    free_head_ = 0;
}

// -- bitmap -----------------------------------------------------------------

void FfsSorter::bit_set(std::uint64_t p) {
    for (auto& level : levels_) {
        std::uint64_t& word = level[p >> 6];
        const std::uint64_t bit = std::uint64_t{1} << (p & 63);
        if (word & bit) return;
        const bool was_zero = word == 0;
        word |= bit;
        if (!was_zero) return;  // summaries above are already set
        p >>= 6;
    }
}

void FfsSorter::bit_clear(std::uint64_t p) {
    for (auto& level : levels_) {
        std::uint64_t& word = level[p >> 6];
        word &= ~(std::uint64_t{1} << (p & 63));
        if (word != 0) return;
        p >>= 6;
    }
}

bool FfsSorter::bit_test(std::uint64_t p) const {
    return ((levels_[0].get(p >> 6) >> (p & 63)) & 1U) != 0;
}

std::optional<std::uint64_t> FfsSorter::next_geq(std::uint64_t physical) const {
    if (physical >= range_) return std::nullopt;
    std::uint64_t idx = physical >> 6;
    const std::uint64_t first =
        levels_[0].get(idx) & ~low_mask(static_cast<unsigned>(physical & 63));
    if (first != 0)
        return (idx << 6) | static_cast<unsigned>(std::countr_zero(first));
    for (unsigned lvl = 1; lvl < levels_.size(); ++lvl) {
        const std::uint64_t w = idx >> 6;
        const unsigned b = static_cast<unsigned>(idx & 63);
        const std::uint64_t summary = levels_[lvl].get(w) & ~low_mask(b + 1);
        if (summary != 0) {
            std::uint64_t pos =
                (w << 6) | static_cast<unsigned>(std::countr_zero(summary));
            for (unsigned dl = lvl; dl-- > 0;) {
                const std::uint64_t child = levels_[dl].get(pos);
                WFQS_ASSERT(child != 0);  // summary bit ⇒ non-empty child word
                pos = (pos << 6) | static_cast<unsigned>(std::countr_zero(child));
            }
            return pos;
        }
        idx = w;
    }
    return std::nullopt;
}

std::optional<std::uint64_t> FfsSorter::closest_leq(std::uint64_t physical) const {
    if (physical >= range_) physical = range_ - 1;
    std::uint64_t idx = physical >> 6;
    const unsigned b0 = static_cast<unsigned>(physical & 63);
    const std::uint64_t first = levels_[0].get(idx) & low_mask(b0 + 1);
    if (first != 0) return (idx << 6) | static_cast<unsigned>(highest_set(first));
    for (unsigned lvl = 1; lvl < levels_.size(); ++lvl) {
        const std::uint64_t w = idx >> 6;
        const unsigned b = static_cast<unsigned>(idx & 63);
        const std::uint64_t summary = levels_[lvl].get(w) & low_mask(b);
        if (summary != 0) {
            std::uint64_t pos =
                (w << 6) | static_cast<unsigned>(highest_set(summary));
            for (unsigned dl = lvl; dl-- > 0;) {
                const std::uint64_t child = levels_[dl].get(pos);
                WFQS_ASSERT(child != 0);
                pos = (pos << 6) | static_cast<unsigned>(highest_set(child));
            }
            return pos;
        }
        idx = w;
    }
    return std::nullopt;
}

// -- duplicate chains -------------------------------------------------------

std::uint32_t FfsSorter::chain_slot(std::uint64_t p) const {
    std::uint32_t i = mix32(static_cast<std::uint32_t>(p)) & slot_mask_;
    while (chains_[i].key != kNullValue) {
        if (chains_[i].key == p) return i;
        i = (i + 1) & slot_mask_;
    }
    return kNull;
}

FfsSorter::Chain* FfsSorter::chain_find(std::uint64_t p) {
    const std::uint32_t i = chain_slot(p);
    return i == kNull ? nullptr : &chains_[i];
}

const FfsSorter::Chain* FfsSorter::chain_find(std::uint64_t p) const {
    const std::uint32_t i = chain_slot(p);
    return i == kNull ? nullptr : &chains_[i];
}

FfsSorter::Chain& FfsSorter::chain_insert(std::uint64_t p) {
    std::uint32_t i = mix32(static_cast<std::uint32_t>(p)) & slot_mask_;
    while (chains_[i].key != kNullValue) i = (i + 1) & slot_mask_;
    chains_[i].key = p;
    return chains_[i];
}

void FfsSorter::chain_erase(std::uint64_t p) {
    std::uint32_t i = chain_slot(p);
    WFQS_ASSERT(i != kNull);
    // Backward-shift deletion keeps probe sequences unbroken without
    // tombstones (the table would otherwise fill with them: every retired
    // value is an erase).
    std::uint32_t j = i;
    for (;;) {
        chains_[i].key = kNullValue;
        for (;;) {
            j = (j + 1) & slot_mask_;
            if (chains_[j].key == kNullValue) return;
            const std::uint32_t home =
                mix32(static_cast<std::uint32_t>(chains_[j].key)) & slot_mask_;
            // Move j's entry into the hole at i only if its home slot does
            // not lie cyclically inside (i, j] — otherwise the move would
            // break j's own probe chain.
            const bool movable =
                i <= j ? (home <= i || home > j) : (home <= i && home > j);
            if (movable) break;
        }
        chains_[i] = chains_[j];
        i = j;
    }
}

std::uint32_t FfsSorter::alloc_node(std::uint64_t value, std::uint32_t payload) {
    const std::uint32_t n = free_head_;
    WFQS_ASSERT(n != kNull);
    free_head_ = nodes_[n].next;
    nodes_[n].payload = payload;
    nodes_[n].next = kNull;
    nodes_[n].value = value;
    return n;
}

void FfsSorter::free_node(std::uint32_t n) {
    nodes_[n].value = kNullValue;
    nodes_[n].next = free_head_;
    free_head_ = n;
}

// -- window discipline ------------------------------------------------------

bool FfsSorter::can_accept(std::uint64_t logical) const {
    if (full()) return false;
    if (empty()) return true;
    if (config_.strict_min_discipline && logical < head_logical_) return false;
    const std::uint64_t lo = std::min(logical, head_logical_);
    const std::uint64_t hi = std::max(logical, max_logical_);
    return hi - lo < window_span();
}

void FfsSorter::validate_incoming(std::uint64_t logical) const {
    if (empty()) return;
    if (config_.strict_min_discipline) {
        WFQS_REQUIRE(logical >= head_logical_,
                     "paper-mode contract: a new tag may not undercut the minimum");
    }
    const std::uint64_t lo = std::min(logical, head_logical_);
    const std::uint64_t hi = std::max(logical, max_logical_);
    WFQS_REQUIRE(hi - lo < window_span(),
                 "tag would stretch the live window beyond the wrap limit (Fig. 6)");
}

void FfsSorter::advance_window(std::uint64_t new_head_physical) {
    const unsigned new_sector = sector_of(new_head_physical);
    while (lead_sector_ != new_sector) {
        // The paper flash-clears a sector the head has passed. Here it is
        // already empty: every live tag sits in [head, head + span), and
        // a passed sector lies outside that window on both laps, while
        // immediate last-duplicate retirement leaves no stale markers.
        WFQS_ASSERT(sector_occupancy_[lead_sector_] == 0);
        lead_sector_ = (lead_sector_ + 1) % branching_;
        ++stats_.sector_invalidations;
    }
}

// -- datapath ---------------------------------------------------------------

void FfsSorter::insert(std::uint64_t tag, std::uint32_t payload) {
    // Both precondition failures throw *before* any state is touched
    // (contract shared with the model backend).
    if (full()) throw std::overflow_error("FfsSorter: tag memory full");
    validate_incoming(tag);
    const std::uint64_t physical = tag & (range_ - 1);
    const bool was_empty = empty();
    const bool undercut = !was_empty && tag < head_logical_;

    const std::uint32_t node = alloc_node(physical, payload & payload_mask_);
    Chain* chain = chain_find(physical);
    if (chain != nullptr) {
        // FIFO among duplicates: the model inserts after the newest entry
        // of the matched value, which is exactly a tail append.
        nodes_[chain->tail].next = node;
        chain->tail = node;
        if (!was_empty && !undercut) ++stats_.duplicate_inserts;
    } else {
        Chain& fresh = chain_insert(physical);
        fresh.head = fresh.tail = node;
        bit_set(physical);
    }

    if (was_empty || undercut) {
        head_logical_ = tag;
        lead_sector_ = sector_of(physical);
        if (undercut) ++stats_.head_undercuts;
        if (was_empty) max_logical_ = tag;
    }
    max_logical_ = std::max(max_logical_, tag);
    ++sector_occupancy_[sector_of(physical)];
    ++size_;
    ++stats_.inserts;
}

std::optional<SortedTag> FfsSorter::peek_min() const {
    if (empty()) return std::nullopt;
    const Chain* chain = chain_find(head_logical_ & (range_ - 1));
    WFQS_ASSERT(chain != nullptr);
    return SortedTag{head_logical_, nodes_[chain->head].payload};
}

std::optional<SortedTag> FfsSorter::pop_min() {
    if (empty()) return std::nullopt;
    const std::uint64_t head_physical = head_logical_ & (range_ - 1);
    Chain* chain = chain_find(head_physical);
    WFQS_ASSERT(chain != nullptr);
    const std::uint32_t node = chain->head;
    const SortedTag result{head_logical_, nodes_[node].payload};
    const std::uint32_t next = nodes_[node].next;

    if (next == kNull) {
        // Last duplicate departs: retire the marker immediately so the
        // value space can be reused (the DESIGN.md refinement).
        chain_erase(head_physical);  // invalidates `chain`
        bit_clear(head_physical);
        ++stats_.marker_retirements;
    } else {
        chain->head = next;
    }
    free_node(node);
    --sector_occupancy_[sector_of(head_physical)];
    --size_;

    if (!empty()) {
        std::uint64_t new_head_physical = head_physical;
        if (next == kNull) {
            auto succ = next_geq(head_physical);
            if (!succ) succ = next_geq(0);  // live window wraps the seam
            WFQS_ASSERT(succ.has_value());
            new_head_physical = *succ;
        }
        head_logical_ += (new_head_physical - head_physical) & (range_ - 1);
        advance_window(new_head_physical);
    }
    ++stats_.pops;
    return result;
}

SortedTag FfsSorter::insert_and_pop(std::uint64_t tag, std::uint32_t payload) {
    WFQS_REQUIRE(!empty(), "insert_and_pop needs a non-empty sorter");
    validate_incoming(tag);
    const std::uint64_t physical = tag & (range_ - 1);
    const std::uint64_t head_physical = head_logical_ & (range_ - 1);
    const bool undercut = tag < head_logical_;
    const bool same_value = physical == head_physical;

    Chain* head_chain = chain_find(head_physical);
    WFQS_ASSERT(head_chain != nullptr);
    const std::uint32_t popped_node = head_chain->head;
    const SortedTag result{head_logical_, nodes_[popped_node].payload};
    const std::uint32_t next = nodes_[popped_node].next;

    if (!undercut && !same_value && chain_slot(physical) != kNull)
        ++stats_.duplicate_inserts;

    // Pop the departing head duplicate. The marker survives when another
    // duplicate remains or when the incoming tag re-uses the same value
    // (the model's reinserted_same_value case).
    if (next != kNull) {
        head_chain->head = next;
    } else if (!same_value) {
        chain_erase(head_physical);  // invalidates head_chain
        bit_clear(head_physical);
        ++stats_.marker_retirements;
    }
    free_node(popped_node);
    --sector_occupancy_[sector_of(head_physical)];

    // Store the incoming tag (slot reuse: net size change is zero, so no
    // capacity check — the model's combined list op has none either).
    const std::uint32_t node = alloc_node(physical, payload & payload_mask_);
    Chain* chain = chain_find(physical);
    if (chain != nullptr) {
        if (same_value && next == kNull) {
            chain->head = chain->tail = node;  // sole survivor of its value
        } else {
            nodes_[chain->tail].next = node;
            chain->tail = node;
        }
    } else {
        Chain& fresh = chain_insert(physical);
        fresh.head = fresh.tail = node;
        bit_set(physical);
    }
    ++sector_occupancy_[sector_of(physical)];
    max_logical_ = std::max(max_logical_, tag);

    if (undercut) {
        head_logical_ = tag;
        lead_sector_ = sector_of(physical);
        ++stats_.head_undercuts;
    } else {
        std::uint64_t new_head_physical = head_physical;
        if (next == kNull && !same_value) {
            auto succ = next_geq(head_physical);
            if (!succ) succ = next_geq(0);
            WFQS_ASSERT(succ.has_value());
            new_head_physical = *succ;
        }
        head_logical_ += (new_head_physical - head_physical) & (range_ - 1);
        advance_window(new_head_physical);
    }
    ++stats_.combined_ops;
    return result;
}

// -- integrity --------------------------------------------------------------

fault::AuditReport FfsSorter::audit() const {
    fault::AuditReport report;
    const auto issue = [&](fault::IntegrityKind kind, std::string detail,
                           bool repairable) {
        report.issues.push_back({kind, std::move(detail), repairable});
    };

    // Summary levels must mirror the leaf words. Both directions run over
    // nonzero words only (a 32-bit leaf level is 2^26 words — almost all
    // zero): expected summaries are built sparsely from the level below,
    // compared against the nonzero actual words, and whatever survives in
    // `expected` is a summary word that should be set but reads zero.
    for (unsigned lvl = 1; lvl < levels_.size(); ++lvl) {
        std::map<std::uint64_t, std::uint64_t> expected;
        levels_[lvl - 1].for_each_nonzero(
            [&](std::uint64_t child, std::uint64_t) {
                expected[child >> 6] |= std::uint64_t{1} << (child & 63);
            });
        levels_[lvl].for_each_nonzero([&](std::uint64_t w, std::uint64_t word) {
            const auto it = expected.find(w);
            const std::uint64_t want = it == expected.end() ? 0 : it->second;
            if (word != want) {
                issue(fault::IntegrityKind::kTreeInvariant,
                      "summary word " + std::to_string(w) + " at level " +
                          std::to_string(lvl) + " disagrees with the level below",
                      true);
            }
            if (it != expected.end()) expected.erase(it);
        });
        for (const auto& [w, want] : expected) {
            (void)want;
            issue(fault::IntegrityKind::kTreeInvariant,
                  "summary word " + std::to_string(w) + " at level " +
                      std::to_string(lvl) + " disagrees with the level below",
                  true);
        }
    }

    // Walk every duplicate chain; the chain table is the ground truth
    // (the analogue of the model's linked tag store).
    std::vector<char> seen(capacity_, 0);
    std::vector<std::uint32_t> sector_counts(branching_, 0);
    std::uint64_t walked = 0;
    bool chains_ok = true;
    for (const Chain& chain : chains_) {
        if (chain.key == kNullValue) continue;
        const std::uint64_t p = chain.key;
        if (p >= range_) {
            issue(fault::IntegrityKind::kBrokenLink,
                  "chain key " + std::to_string(p) + " outside the value range",
                  false);
            chains_ok = false;
            continue;
        }
        if (!bit_test(p)) {
            issue(fault::IntegrityKind::kTreeInvariant,
                  "stored value " + std::to_string(p) + " has no leaf marker",
                  true);
        }
        std::uint32_t n = chain.head;
        std::uint32_t last = kNull;
        std::uint64_t len = 0;
        bool broken = false;
        while (n != kNull) {
            if (n >= capacity_ || seen[n] != 0 || len >= capacity_) {
                issue(fault::IntegrityKind::kBrokenLink,
                      "chain for value " + std::to_string(p) +
                          " is cyclic or points outside the pool",
                      false);
                chains_ok = false;
                broken = true;
                break;
            }
            if (nodes_[n].value != p) {
                issue(fault::IntegrityKind::kTagOrder,
                      "node " + std::to_string(n) +
                          " disagrees with its chain key " + std::to_string(p),
                      true);
            }
            seen[n] = 1;
            ++len;
            last = n;
            n = nodes_[n].next;
        }
        if (broken) continue;
        if (chain.tail != last) {
            issue(fault::IntegrityKind::kBrokenLink,
                  "stale tail pointer for value " + std::to_string(p), true);
        }
        walked += len;
        sector_counts[sector_of(p)] += static_cast<std::uint32_t>(len);
    }

    // Leaf markers without a chain (the "marker without translation"
    // analogue). Nonzero leaf words only.
    levels_[0].for_each_nonzero([&](std::uint64_t w, std::uint64_t word) {
        while (word != 0) {
            const unsigned b = static_cast<unsigned>(std::countr_zero(word));
            word &= word - 1;
            const std::uint64_t p = (w << 6) | b;
            if (p >= range_) {
                issue(fault::IntegrityKind::kTreeInvariant,
                      "leaf marker beyond the value range", true);
            } else if (chain_slot(p) == kNull) {
                issue(fault::IntegrityKind::kTranslationMissing,
                      "leaf marker for value " + std::to_string(p) +
                          " has no stored entry",
                      true);
            }
        }
    });

    // Free-list walk: every node must be exactly live or free.
    std::uint64_t free_count = 0;
    bool freelist_ok = true;
    for (std::uint32_t n = free_head_; n != kNull; n = nodes_[n].next) {
        if (n >= capacity_ || seen[n] != 0 || free_count >= capacity_) {
            issue(fault::IntegrityKind::kFreeList,
                  "free list is cyclic, overlaps live chains, or points "
                  "outside the pool",
                  true);
            freelist_ok = false;
            break;
        }
        if (nodes_[n].value != kNullValue) {
            issue(fault::IntegrityKind::kFreeList,
                  "free node " + std::to_string(n) + " carries a live value",
                  true);
        }
        seen[n] = 2;
        ++free_count;
    }
    if (chains_ok && freelist_ok && walked + free_count != capacity_) {
        issue(fault::IntegrityKind::kFreeList,
              "node pool leak: " + std::to_string(walked) + " live + " +
                  std::to_string(free_count) + " free != capacity",
              true);
    }

    if (chains_ok && walked != size_) {
        issue(fault::IntegrityKind::kTreeInvariant,
              "occupancy register " + std::to_string(size_) +
                  " disagrees with chain walk " + std::to_string(walked),
              true);
    }
    if (chains_ok) {
        for (unsigned s = 0; s < branching_; ++s) {
            if (sector_counts[s] != sector_occupancy_[s]) {
                issue(fault::IntegrityKind::kTreeInvariant,
                      "sector " + std::to_string(s) + " occupancy drift", true);
            }
        }
    }
    if (size_ != 0 && chain_slot(head_logical_ & (range_ - 1)) == kNull) {
        // The head register cannot be re-derived from the structures (it
        // carries the logical epoch).
        issue(fault::IntegrityKind::kTreeInvariant,
              "no stored entry at the registered minimum", false);
    }

    report.entries_walked = walked;
    if (!report.clean()) ++stats_.audits;
    return report;
}

// -- observability ----------------------------------------------------------

void FfsSorter::register_metrics(obs::MetricsRegistry& registry,
                                 const std::string& prefix) const {
    const auto cnt = [&](const char* name, const std::uint64_t SorterStats::*field) {
        registry.register_counter_fn(prefix + "." + name,
                                     [this, field] { return stats_.*field; });
    };
    cnt("inserts", &SorterStats::inserts);
    cnt("pops", &SorterStats::pops);
    cnt("combined_ops", &SorterStats::combined_ops);
    cnt("duplicate_inserts", &SorterStats::duplicate_inserts);
    cnt("marker_retirements", &SorterStats::marker_retirements);
    cnt("sector_invalidations", &SorterStats::sector_invalidations);
    cnt("wrap_fallback_searches", &SorterStats::wrap_fallback_searches);
    cnt("head_undercuts", &SorterStats::head_undercuts);
    cnt("worst_insert_cycles", &SorterStats::worst_insert_cycles);
    cnt("worst_pop_cycles", &SorterStats::worst_pop_cycles);
    cnt("audits", &SorterStats::audits);
    cnt("repairs", &SorterStats::repairs);
    cnt("rebuilds", &SorterStats::rebuilds);
    cnt("rebuild_recovered", &SorterStats::rebuild_recovered);
    cnt("rebuild_lost", &SorterStats::rebuild_lost);
    registry.register_gauge_fn(prefix + ".occupancy",
                               [this] { return static_cast<double>(size()); });
    registry.register_histogram(prefix + ".insert_cycles", &insert_cycles_hist_);
    registry.register_histogram(prefix + ".pop_cycles", &pop_cycles_hist_);
    registry.register_histogram(prefix + ".combined_cycles", &combined_cycles_hist_);
}

// -- debug hooks ------------------------------------------------------------

std::uint32_t FfsSorter::debug_chain_head(std::uint64_t physical) const {
    const Chain* chain = chain_find(physical);
    return chain == nullptr ? kNull : chain->head;
}

std::uint32_t FfsSorter::debug_chain_tail(std::uint64_t physical) const {
    const Chain* chain = chain_find(physical);
    return chain == nullptr ? kNull : chain->tail;
}

void FfsSorter::debug_set_chain_tail(std::uint64_t physical, std::uint32_t node) {
    Chain* chain = chain_find(physical);
    WFQS_ASSERT(chain != nullptr);
    chain->tail = node;
}

}  // namespace wfqs::core
