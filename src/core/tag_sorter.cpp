#include "core/tag_sorter.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/bits.hpp"
#include "fault/errors.hpp"
#include "obs/tracer.hpp"

namespace wfqs::core {

namespace {
unsigned addr_bits_for(std::size_t capacity) {
    return static_cast<unsigned>(64 - std::countl_zero(static_cast<std::uint64_t>(capacity)));
}
unsigned sram_level_for(const tree::TreeGeometry& g) {
    return std::min(2u, g.levels);
}
// Construction-time width audit: every field that later travels through a
// uint32 (SortedTag::payload, storage::Addr) or a packed SRAM word is
// checked here, so a too-wide configuration fails loudly instead of
// silently truncating mid-datapath.
const TagSorter::Config& checked(const TagSorter::Config& config) {
    config.geometry.validate();
    WFQS_REQUIRE(config.payload_bits >= 1 && config.payload_bits <= 32,
                 "payload width must be 1..32 bits (SortedTag::payload is uint32)");
    WFQS_REQUIRE(config.capacity >= 2 &&
                     config.capacity <= (std::size_t{1} << 30),
                 "capacity must be 2..2^30 slots (list addresses are uint32 "
                 "with headroom for the null encoding)");
    return config;
}
storage::TranslationTable::Config table_config(const TagSorter::Config& config) {
    return {config.geometry.tag_bits(), addr_bits_for(config.capacity),
            config.tiered_table, config.table_hot_bits,
            config.table_miss_penalty_cycles};
}
}  // namespace

std::size_t TagSorter::hist_bins(const Config& config) {
    const bool tiered = config.tiered_table.value_or(
        config.geometry.tag_bits() > storage::TranslationTable::kFlatTagBitsMax);
    // Worst op ≈ tree descent + list FSM + retirement: bounded by 8
    // cycles per level plus an 8-cycle floor; a tiered table can add the
    // bulk-miss stall (twice: lookup + install window slack).
    std::uint64_t top = 8ull * config.geometry.levels + 8;
    if (tiered) top += 2ull * config.table_miss_penalty_cycles;
    return static_cast<std::size_t>((top + 31) / 32 * 32);
}

TagSorter::TagSorter(const Config& config, hw::Simulation& sim)
    : config_(checked(config)),
      owned_matcher_(std::make_unique<matcher::BehavioralMatcher>()),
      tree_({config.geometry, sram_level_for(config.geometry)}, sim, *owned_matcher_),
      table_(table_config(config), sim),
      store_({config.capacity, config.geometry.tag_bits(), config.payload_bits}, sim),
      clock_(sim.clock()),
      range_(config.geometry.capacity()) {}

TagSorter::TagSorter(const Config& config, hw::Simulation& sim,
                     matcher::MatcherEngine& matcher)
    : config_(checked(config)),
      tree_({config.geometry, sram_level_for(config.geometry)}, sim, matcher),
      table_(table_config(config), sim),
      store_({config.capacity, config.geometry.tag_bits(), config.payload_bits}, sim),
      clock_(sim.clock()),
      range_(config.geometry.capacity()) {}

std::uint64_t TagSorter::window_span() const {
    return range_ - range_ / config_.geometry.branching();
}

std::uint64_t TagSorter::to_physical(std::uint64_t logical) const {
    return logical & (range_ - 1);
}

bool TagSorter::can_accept(std::uint64_t logical) const {
    if (full()) return false;
    if (empty()) return true;
    if (config_.strict_min_discipline && logical < head_logical_) return false;
    const std::uint64_t lo = std::min(logical, head_logical_);
    const std::uint64_t hi = std::max(logical, max_logical_);
    return hi - lo < window_span();
}

void TagSorter::validate_incoming(std::uint64_t logical) const {
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

std::optional<std::uint64_t> TagSorter::wrapped_search_insert(std::uint64_t physical,
                                                              bool* planted) {
    const std::uint64_t head_physical = to_physical(head_logical_);
    std::optional<std::uint64_t> match = tree_.search_and_insert(physical, planted);
    if (empty()) return match;  // caller treats result as "list was empty"
    if (physical >= head_physical) {
        // Not across the seam: the minimum's marker bounds the search from
        // below, so a match is guaranteed and logically correct — unless a
        // fault cleared the minimum's marker.
        if (!match || *match < head_physical) {
            throw fault::IntegrityError(
                fault::IntegrityKind::kTreeInvariant,
                "search below the stored minimum: the head marker is missing");
        }
        return match;
    }
    // Below the seam (the tag wrapped past zero): markers ≤ physical are
    // wrapped values too and any hit is the true logical predecessor. A
    // miss means the predecessor is the logically-last tag of the upper
    // segment — the physically largest marker — found by a second pass
    // aimed at the top of the value space.
    if (!match) {
        ++stats_.wrap_fallback_searches;
        match = tree_.closest_leq(range_ - 1);
        if (!match || *match < head_physical) {
            throw fault::IntegrityError(
                fault::IntegrityKind::kTreeInvariant,
                "wrap fallback found no marker in the upper segment");
        }
    }
    return match;
}

void TagSorter::retire_if_last(std::uint64_t popped_physical, bool next_equal,
                               bool reinserted_same_value) {
    if (next_equal || reinserted_same_value) return;
    // Last duplicate of this value is gone: retire the marker and the
    // translation entry so the value space can be reused immediately.
    tree_.erase(popped_physical);
    table_.invalidate(popped_physical);
    ++stats_.marker_retirements;
}

void TagSorter::advance_window(std::uint64_t new_head_physical) {
    const unsigned B = config_.geometry.branching();
    const std::uint64_t sector_size = range_ / B;
    const unsigned new_sector = static_cast<unsigned>(new_head_physical / sector_size);
    // Invalidate every root sector the minimum has moved past (Fig. 6);
    // one cycle each. With immediate marker retirement these sectors are
    // already empty — the flash clear is the paper's belt-and-braces bulk
    // hygiene and keeps the cycle cost model honest.
    while (lead_sector_ != new_sector) {
        tree_.clear_sector(lead_sector_);
        lead_sector_ = (lead_sector_ + 1) % B;
        ++stats_.sector_invalidations;
    }
}

void TagSorter::register_metrics(obs::MetricsRegistry& registry,
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

void TagSorter::insert(std::uint64_t tag, std::uint32_t payload) {
    WFQS_TRACE_SPAN("sorter.insert", "sorter");
    // Both precondition failures throw *before* any state is touched, so
    // a caller that catches them can keep operating on an intact sorter.
    if (full()) throw std::overflow_error("TagSorter: tag memory full");
    validate_incoming(tag);
    const std::uint64_t t0 = clock_.now();
    const std::uint64_t physical = to_physical(tag);
    const bool was_empty = empty();
    const bool undercut = !was_empty && tag < head_logical_;

    // An IntegrityError can surface *after* the tree pass has planted the
    // new marker (e.g. the predecessor's translation entry is corrupt); a
    // marker without a list entry would itself be corruption, so roll it
    // back before rethrowing. A duplicate's marker predates this insert
    // and stays.
    bool planted = false;
    storage::Addr new_addr;
    try {
        if (was_empty || undercut) {
            // New global minimum: no predecessor exists; the tree still gets
            // the marker (same pipeline pass, search result unused).
            tree_.search_and_insert(physical, &planted);
            new_addr = store_.insert_at_head({physical, payload});
            head_logical_ = tag;
            lead_sector_ = static_cast<unsigned>(
                physical / (range_ / config_.geometry.branching()));
            if (undercut) ++stats_.head_undercuts;
            if (was_empty) max_logical_ = tag;
        } else {
            const std::optional<std::uint64_t> match =
                wrapped_search_insert(physical, &planted);
            WFQS_ASSERT(match.has_value());
            if (*match == physical) ++stats_.duplicate_inserts;
            const std::optional<storage::Addr> pred = table_.lookup(*match);
            if (!pred.has_value()) {
                throw fault::IntegrityError(
                    fault::IntegrityKind::kTranslationMissing,
                    "no translation entry for marked value " + std::to_string(*match));
            }
            if (*pred >= store_.capacity()) {
                throw fault::IntegrityError(
                    fault::IntegrityKind::kTranslationDangling,
                    "translation entry for value " + std::to_string(*match) +
                        " points outside the store");
            }
            new_addr = store_.insert_after(*pred, {physical, payload});
        }
    } catch (...) {
        if (planted) tree_.erase(physical);
        throw;
    }
    max_logical_ = std::max(max_logical_, tag);
    table_.set(physical, new_addr);

    ++stats_.inserts;
    const std::uint64_t cycles = clock_.now() - t0;
    stats_.insert_cycles_total += cycles;
    stats_.worst_insert_cycles = std::max(stats_.worst_insert_cycles, cycles);
    insert_cycles_hist_.record_cycles(cycles);
}

std::optional<SortedTag> TagSorter::peek_min() const {
    const auto head = store_.peek_head();
    if (!head) return std::nullopt;
    return SortedTag{head_logical_, head->payload};
}

std::optional<SortedTag> TagSorter::pop_min() {
    if (empty()) return std::nullopt;
    WFQS_TRACE_SPAN("sorter.pop_min", "sorter");
    const std::uint64_t t0 = clock_.now();

    const std::optional<std::uint64_t> second = store_.peek_second_tag();
    const auto popped = store_.pop_head();
    WFQS_ASSERT(popped.has_value());
    const SortedTag result{head_logical_, popped->payload};

    retire_if_last(popped->tag, second && *second == popped->tag,
                   /*reinserted_same_value=*/false);

    if (!empty()) {
        const std::uint64_t new_head_physical = store_.peek_head()->tag;
        head_logical_ += (new_head_physical - popped->tag) & (range_ - 1);
        advance_window(new_head_physical);
    }

    ++stats_.pops;
    const std::uint64_t cycles = clock_.now() - t0;
    stats_.pop_cycles_total += cycles;
    stats_.worst_pop_cycles = std::max(stats_.worst_pop_cycles, cycles);
    pop_cycles_hist_.record_cycles(cycles);
    return result;
}

SortedTag TagSorter::insert_and_pop(std::uint64_t tag, std::uint32_t payload) {
    WFQS_TRACE_SPAN("sorter.insert_and_pop", "sorter");
    WFQS_REQUIRE(!empty(), "insert_and_pop needs a non-empty sorter");
    validate_incoming(tag);
    const std::uint64_t t0 = clock_.now();
    const std::uint64_t physical = to_physical(tag);

    const std::optional<std::uint64_t> second = store_.peek_second_tag();
    const std::uint64_t head_physical_before = to_physical(head_logical_);
    const bool undercut = tag < head_logical_;

    storage::Addr pred_addr = storage::kNullAddr;
    if (undercut) {
        // New global minimum: marker insert only, no predecessor.
        tree_.search_and_insert(physical);
        ++stats_.head_undercuts;
    } else {
        const std::optional<std::uint64_t> match = wrapped_search_insert(physical);
        WFQS_ASSERT(match.has_value());
        if (*match == physical && physical != head_physical_before)
            ++stats_.duplicate_inserts;
        // Predecessor address. When the match is the departing minimum
        // itself (and it is its last duplicate), the translation entry
        // points at the head slot that is about to be reused — which is
        // exactly the "new head" case of the combined list operation.
        const std::optional<storage::Addr> pred = table_.lookup(*match);
        if (!pred.has_value()) {
            throw fault::IntegrityError(
                fault::IntegrityKind::kTranslationMissing,
                "no translation entry for marked value " + std::to_string(*match));
        }
        if (*pred >= store_.capacity()) {
            throw fault::IntegrityError(
                fault::IntegrityKind::kTranslationDangling,
                "translation entry for value " + std::to_string(*match) +
                    " points outside the store");
        }
        pred_addr = *pred;
    }

    const auto combined = store_.insert_and_pop_head(pred_addr, {physical, payload});
    const SortedTag result{head_logical_, combined.popped.payload};

    retire_if_last(combined.popped.tag, second && *second == combined.popped.tag,
                   /*reinserted_same_value=*/physical == combined.popped.tag);
    table_.set(physical, combined.inserted_at);
    max_logical_ = std::max(max_logical_, tag);

    // New head: either the incoming tag took over the head slot or the old
    // second entry moved up.
    const std::uint64_t new_head_physical = store_.peek_head()->tag;
    if (undercut) {
        head_logical_ = tag;
        lead_sector_ = static_cast<unsigned>(
            new_head_physical / (range_ / config_.geometry.branching()));
    } else {
        head_logical_ += (new_head_physical - combined.popped.tag) & (range_ - 1);
        advance_window(new_head_physical);
    }

    ++stats_.combined_ops;
    const std::uint64_t cycles = clock_.now() - t0;
    stats_.insert_cycles_total += cycles;
    stats_.worst_insert_cycles = std::max(stats_.worst_insert_cycles, cycles);
    combined_cycles_hist_.record_cycles(cycles);
    return result;
}

}  // namespace wfqs::core
