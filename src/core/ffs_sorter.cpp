#include "core/ffs_sorter.hpp"

#include <algorithm>
#include <bit>
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

// -- construction -------------------------------------------------------------

FfsSorter::FfsSorter(const Config& config)
    : config_(config), range_(config.geometry.capacity()), range_mask_(range_ - 1) {
    config_.geometry.validate();
    WFQS_REQUIRE(config_.capacity > 0, "sorter needs at least one slot");
    WFQS_REQUIRE(config_.capacity < kNull, "node indices are 32-bit");
    branching_ = config_.geometry.branching();
    sector_size_ = range_ / branching_;
    sector_shift_ = static_cast<unsigned>(std::countr_zero(sector_size_));
    capacity_ = config_.capacity;
    payload_mask_ = static_cast<std::uint32_t>(low_mask(config_.payload_bits));

    std::uint64_t bits = range_;
    do {
        const std::uint64_t words = ceil_div(bits, 64);
        levels_.emplace_back(words);
        bits = words;
    } while (bits > 1);

    // The node pool starts empty and the chain table at 16 slots; both
    // double on demand (alloc_node, chain_for).
    chains_.resize(16);
    slot_mask_ = 15;
    sector_occupancy_.resize(branching_, 0);
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

std::uint32_t FfsSorter::home_slot(std::uint64_t p) const {
    return mix32(static_cast<std::uint32_t>(p)) & slot_mask_;
}

std::uint32_t FfsSorter::chain_slot(std::uint64_t p) const {
    std::uint32_t i = home_slot(p);
    while (chains_[i].key != kNullValue) {
        if (chains_[i].key == p) return i;
        i = (i + 1) & slot_mask_;
    }
    return kNull;
}

std::uint32_t FfsSorter::chain_for(std::uint64_t p, bool& fresh) {
    std::uint32_t i = home_slot(p);
    while (chains_[i].key != kNullValue) {
        if (chains_[i].key == p) {
            fresh = false;
            return i;
        }
        i = (i + 1) & slot_mask_;
    }
    fresh = true;
    // A quarter full at most: linear probes stay short on every op
    // that creates, finds or retires a value.
    if (4 * (std::uint64_t{chain_count_} + 1) > chains_.size()) {
        grow_chains();
        i = home_slot(p);
        while (chains_[i].key != kNullValue) i = (i + 1) & slot_mask_;
    }
    ++chain_count_;
    chains_[i] = Chain{p, kNull, kNull};
    bit_set(p);
    return i;
}

void FfsSorter::grow_chains() {
    WFQS_ASSERT(chains_.size() <= (std::size_t{1} << 31));  // slot indices are 32-bit
    std::vector<Chain> old(chains_.size() * 2);
    old.swap(chains_);
    slot_mask_ = static_cast<std::uint32_t>(chains_.size() - 1);
    for (const Chain& chain : old) {
        if (chain.key == kNullValue) continue;
        std::uint32_t i = home_slot(chain.key);
        while (chains_[i].key != kNullValue) i = (i + 1) & slot_mask_;
        chains_[i] = chain;
    }
}

void FfsSorter::erase_slot(std::uint32_t i) {
    --chain_count_;
    // Backward-shift deletion keeps probe sequences unbroken without
    // tombstones (the table would otherwise fill with them: every retired
    // value is an erase).
    std::uint32_t j = i;
    for (;;) {
        chains_[i].key = kNullValue;
        for (;;) {
            j = (j + 1) & slot_mask_;
            if (chains_[j].key == kNullValue) return;
            const std::uint32_t home = home_slot(chains_[j].key);
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

bool FfsSorter::append(std::uint64_t p, std::uint32_t payload) {
    const std::uint32_t node = alloc_node(p, payload);
    bool fresh = false;
    Chain& chain = chains_[chain_for(p, fresh)];
    if (fresh)
        chain.head = node;
    else
        nodes_[chain.tail].next = node;
    chain.tail = node;
    return !fresh;
}

void FfsSorter::push_front(std::uint64_t p, std::uint32_t payload) {
    const std::uint32_t node = alloc_node(p, payload);
    bool fresh = false;
    Chain& chain = chains_[chain_for(p, fresh)];
    nodes_[node].next = chain.head;
    chain.head = node;
    if (fresh) chain.tail = node;
}

std::uint32_t FfsSorter::pop_front(std::uint32_t slot, std::uint64_t p) {
    Chain& chain = chains_[slot];
    const std::uint32_t node = chain.head;
    const std::uint32_t payload = nodes_[node].payload;
    chain.head = nodes_[node].next;
    free_node(node);
    if (chain.head == kNull) {
        erase_slot(slot);
        bit_clear(p);
    }
    return payload;
}

std::uint32_t FfsSorter::alloc_node(std::uint64_t value, std::uint32_t payload) {
    if (free_head_ == kNull) {
        // Double the pool (geometric growth: at most log2(capacity)
        // doublings per lifetime), threading the new nodes onto the free
        // list in index order.
        const std::size_t old = nodes_.size();
        const std::size_t grown = std::min(capacity_, std::max<std::size_t>(16, 2 * old));
        WFQS_ASSERT(grown > old);
        nodes_.resize(grown);
        for (std::size_t i = old; i < grown; ++i)
            nodes_[i].next = i + 1 < grown ? static_cast<std::uint32_t>(i + 1) : kNull;
        free_head_ = static_cast<std::uint32_t>(old);
    }
    const std::uint32_t n = free_head_;
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
        // Left to do host-side: free the level words wholly inside it.
        WFQS_ASSERT(sector_occupancy_[lead_sector_] == 0);
        const std::uint64_t lo = std::uint64_t{lead_sector_} << sector_shift_;
        for (unsigned lvl = 0, shift = 6; lvl < levels_.size(); ++lvl, shift += 6) {
            const std::uint64_t first = ceil_div(lo, std::uint64_t{1} << shift);
            const std::uint64_t end = (lo + sector_size_) >> shift;  // words wholly inside
            if (end > first) levels_[lvl].clear_range(first, end - first);
        }
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
    payload &= payload_mask_;
    const std::uint64_t physical = tag & range_mask_;

    if (empty()) {
        head_logical_ = max_logical_ = tag;
        head_payload_ = payload;
        lead_sector_ = sector_of(physical);
    } else if (tag < head_logical_) {
        // Undercut: the newcomer takes the register. The old head was
        // inserted before any queued duplicate of its value, so it rejoins
        // at the front of that value's chain.
        push_front(head_logical_ & range_mask_, head_payload_);
        head_logical_ = tag;
        head_payload_ = payload;
        lead_sector_ = sector_of(physical);
        ++stats_.head_undercuts;
    } else {
        // FIFO among duplicates: the model inserts after the newest entry
        // of the matched value, which is exactly a tail append.
        if (append(physical, payload) || tag == head_logical_) ++stats_.duplicate_inserts;
    }
    max_logical_ = std::max(max_logical_, tag);
    ++sector_occupancy_[sector_of(physical)];
    ++size_;
    ++stats_.inserts;
}

void FfsSorter::refill_head(std::uint64_t head_physical) {
    std::uint32_t slot = chain_slot(head_physical);
    std::uint64_t next_physical = head_physical;
    if (slot == kNull) {
        // Last duplicate departed: its marker retires with it (the
        // DESIGN.md refinement), and one successor scan finds the new
        // head. The head's own value carries no leaf bit here.
        ++stats_.marker_retirements;
        auto succ = next_geq(head_physical);
        if (!succ) succ = next_geq(0);  // live window wraps the seam
        WFQS_ASSERT(succ.has_value());
        next_physical = *succ;
        slot = chain_slot(next_physical);
        WFQS_ASSERT(slot != kNull);
        head_logical_ += (next_physical - head_physical) & range_mask_;
        advance_window(next_physical);
    }
    head_payload_ = pop_front(slot, next_physical);
}

std::optional<SortedTag> FfsSorter::pop_min() {
    if (empty()) return std::nullopt;
    const SortedTag result{head_logical_, head_payload_};
    const std::uint64_t head_physical = head_logical_ & range_mask_;
    --sector_occupancy_[sector_of(head_physical)];
    --size_;
    if (empty())
        ++stats_.marker_retirements;
    else
        refill_head(head_physical);
    ++stats_.pops;
    return result;
}

SortedTag FfsSorter::insert_and_pop(std::uint64_t tag, std::uint32_t payload) {
    WFQS_REQUIRE(!empty(), "insert_and_pop needs a non-empty sorter");
    validate_incoming(tag);
    payload &= payload_mask_;
    const std::uint64_t physical = tag & range_mask_;
    const std::uint64_t head_physical = head_logical_ & range_mask_;
    const SortedTag result{head_logical_, head_payload_};
    // Slot reuse: net size change is zero, so no capacity check (the
    // model's combined list op has none either).
    --sector_occupancy_[sector_of(head_physical)];
    ++sector_occupancy_[sector_of(physical)];
    max_logical_ = std::max(max_logical_, tag);

    if (tag < head_logical_) {
        // Undercut: the previous head departs and the newcomer takes the
        // register; the old head value's queued duplicates stay queued.
        if (size_ == 1 || chain_slot(head_physical) == kNull) ++stats_.marker_retirements;
        head_logical_ = tag;
        head_payload_ = payload;
        lead_sector_ = sector_of(physical);
        ++stats_.head_undercuts;
    } else if (size_ == 1) {
        // Singleton: the newcomer is all that remains. Its own value keeps
        // the marker alive (the model's reinserted_same_value case).
        if (tag != head_logical_) ++stats_.marker_retirements;
        head_logical_ = tag;
        head_payload_ = payload;
        advance_window(physical);
    } else {
        // Queue the newcomer (behind any equal tag, the head's included),
        // then refill the register as a pop would.
        if (append(physical, payload) && tag != head_logical_) ++stats_.duplicate_inserts;
        refill_head(head_physical);
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
    // zero): each nonzero summary word is compared with the words below
    // it, then every nonzero word below must find a nonzero summary word.
    for (unsigned lvl = 1; lvl < levels_.size(); ++lvl) {
        const PagedArray<std::uint64_t>& below = levels_[lvl - 1];
        const auto disagrees = [&](std::uint64_t w) {
            issue(fault::IntegrityKind::kTreeInvariant,
                  "summary word " + std::to_string(w) + " at level " +
                      std::to_string(lvl) + " disagrees with the level below",
                  true);
        };
        levels_[lvl].for_each_nonzero([&](std::uint64_t w, std::uint64_t word) {
            std::uint64_t want = 0;
            for (unsigned b = 0; b < 64 && (w << 6 | b) < below.size(); ++b)
                if (below.get(w << 6 | b) != 0) want |= std::uint64_t{1} << b;
            if (word != want) disagrees(w);
        });
        std::uint64_t reported = kNullValue;
        below.for_each_nonzero([&](std::uint64_t child, std::uint64_t) {
            const std::uint64_t w = child >> 6;
            if (w != reported && levels_[lvl].get(w) == 0) disagrees(reported = w);
        });
    }

    // Walk every duplicate chain; the chain table plus the head register
    // is the ground truth (the analogue of the model's linked tag store).
    const std::uint64_t pool = nodes_.size();
    const std::uint64_t head_physical = head_logical_ & range_mask_;
    std::vector<char> seen(static_cast<std::size_t>(pool), 0);
    std::vector<std::uint32_t> sector_counts(branching_, 0);
    if (size_ != 0) ++sector_counts[sector_of(head_physical)];
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
        if (size_ != 0 && ((p - head_physical) & range_mask_) >= window_span()) {
            // Every queued entry lies in [head, head + span); the rest of
            // the value space is the sector just below the head. The
            // register carries the logical epoch, so it cannot be
            // re-derived from the chains.
            issue(fault::IntegrityKind::kTagOrder,
                  "queued value " + std::to_string(p) +
                      " lies logically below the head register",
                  false);
        }
        std::uint32_t n = chain.head;
        std::uint32_t last = kNull;
        std::uint64_t len = 0;
        bool broken = false;
        while (n != kNull) {
            if (n >= pool || seen[n] != 0 || len >= pool) {
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
        if (n >= pool || seen[n] != 0 || free_count >= pool) {
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
    if (chains_ok && freelist_ok && walked + free_count != pool) {
        issue(fault::IntegrityKind::kFreeList,
              "node pool leak: " + std::to_string(walked) + " queued + " +
                  std::to_string(free_count) + " free != pool size " +
                  std::to_string(pool),
              true);
    }

    // The head register holds the minimum and no pool node.
    if (chains_ok && walked + (size_ != 0 ? 1 : 0) != size_) {
        issue(fault::IntegrityKind::kTreeInvariant,
              "occupancy register " + std::to_string(size_) +
                  " disagrees with chain walk " + std::to_string(walked) +
                  " + head register",
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
    const std::uint32_t slot = chain_slot(physical);
    return slot == kNull ? kNull : chains_[slot].head;
}

std::uint32_t FfsSorter::debug_chain_tail(std::uint64_t physical) const {
    const std::uint32_t slot = chain_slot(physical);
    return slot == kNull ? kNull : chains_[slot].tail;
}

void FfsSorter::debug_set_chain_tail(std::uint64_t physical, std::uint32_t node) {
    const std::uint32_t slot = chain_slot(physical);
    WFQS_ASSERT(slot != kNull);
    chains_[slot].tail = node;
}

}  // namespace wfqs::core
