// Address translation table (§III-D): maps a tag value to the
// linked-list address of the most recently inserted tag of that value.
//
// It is the bridge that lets the search structure (tree) and the storage
// structure (linked list) scale independently: the tree's granularity
// fixes the table size (paper eq. for T = 2^(w·l) entries) while the list
// capacity is bounded only by the external SRAM. Duplicate tag values are
// handled by always pointing at the newest entry (Fig. 11), which keeps
// every tree hit valid and gives FIFO order within a value.
//
// Two backing models:
//
//   * Flat (the paper's layout, default up to kFlatTagBitsMax tag bits):
//     one SRAM entry per representable value — every lookup is one
//     on-chip read.
//   * Tiered (default above kFlatTagBitsMax): 2^32 representable values
//     no longer imply a 2^32-entry SRAM. The authority is a bulk tier at
//     DRAM latency (modeled as a PagedArray of flat-table words plus a
//     fixed miss-penalty clock advance); in front of it sits a direct-mapped
//     on-chip hot-head cache of 2^hot_bits lines, each holding
//     valid | key-tag | address. Lookups that hit the cache cost the
//     same single on-chip read as the flat table — and the head region
//     the sorter hammers (§III-B reads the *minimum* tag's entry) is
//     exactly the region that stays hot. Misses advance the clock by
//     miss_penalty_cycles and install the fetched line; writes are
//     write-through (posted, no stall — a DRAM write buffer).
//
// The miss penalty flows into the sorter's per-op cycle accounting
// automatically: TagSorter bills each op the clock delta across its
// body, and the differ's cycle-closure check keeps the books honest.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "common/assert.hpp"
#include "common/paged_array.hpp"
#include "hw/simulation.hpp"
#include "storage/linked_tag_store.hpp"

namespace wfqs::storage {

struct TranslationStats {
    std::uint64_t lookups = 0;
    std::uint64_t hot_hits = 0;      ///< served by the on-chip cache
    std::uint64_t bulk_misses = 0;   ///< paid the DRAM-latency penalty
};

class TranslationTable {
public:
    /// Widest tag space served by a flat one-entry-per-value SRAM when
    /// the config does not choose a mode explicitly.
    static constexpr unsigned kFlatTagBitsMax = 20;

    struct Config {
        unsigned tag_bits = 12;   ///< table covers 2^tag_bits values
        unsigned addr_bits = 20;  ///< width of a linked-list address
        /// Backing model: unset = flat up to kFlatTagBitsMax tag bits,
        /// tiered above. Set to force either mode (flat stays capped at
        /// 2^28 entries).
        std::optional<bool> tiered{};
        /// Tiered mode: direct-mapped hot-cache lines = 2^hot_bits.
        unsigned hot_bits = 14;
        /// Tiered mode: clock cycles charged per bulk-tier fetch.
        unsigned miss_penalty_cycles = 20;
    };

    TranslationTable(const Config& config, hw::Simulation& sim);

    bool tiered() const { return tiered_; }

    /// Linked-list address of the newest entry with this tag value, if
    /// one is recorded. Flat (and tiered hot hit): one SRAM read, charged
    /// to the current cycle. Tiered miss: advances the clock by the miss
    /// penalty, then installs the line.
    /// The flat lanes of lookup/set/invalidate are inline (the sorter
    /// calls them on every op); the tiered lanes are out of line.
    std::optional<Addr> lookup(std::uint64_t value) {
        WFQS_ASSERT(value < entries());
        ++stats_.lookups;
        if (tiered_) return lookup_tiered(value);
        const std::optional<Addr> addr = unpack(sram_.read(value));
        if (addr) ++stats_.hot_hits;
        return addr;
    }

    /// Record `addr` as the newest entry for `value`. One SRAM write
    /// (tiered: write-through to the bulk tier, posted).
    void set(std::uint64_t value, Addr addr) {
        WFQS_ASSERT(value < entries());
        WFQS_ASSERT(addr < (std::uint64_t{1} << config_.addr_bits));
        if (tiered_) {
            set_tiered(value, addr);
            return;
        }
        sram_.write(value, pack(addr));
    }

    /// Drop the record for `value` (used when the last duplicate departs
    /// or a sector is recycled). One SRAM write when the hot cache holds
    /// the line; the bulk erase is posted.
    void invalidate(std::uint64_t value) {
        WFQS_ASSERT(value < entries());
        if (tiered_) {
            invalidate_tiered(value);
            return;
        }
        sram_.write(value, 0);
    }

    // -- integrity surface (audit/repair/tests; no ports, no cycles) ------

    /// ECC-corrected view of one entry; nullopt when the valid bit is
    /// clear. Never charges a cycle — this is the auditor's read. Tiered
    /// mode consults the authoritative bulk tier.
    std::optional<Addr> peek(std::uint64_t value) const;
    /// Maintenance write: set (or clear, with nullopt) an entry,
    /// re-encoding its check bits (tiered: bulk tier plus any matching
    /// hot line, so the cache never contradicts the authority).
    void poke(std::uint64_t value, std::optional<Addr> addr);
    /// Clear every entry (rebuild path; maintenance writes, no cycles).
    void clear();

    /// Invoke `fn(value, addr)` for every valid entry, ascending by value.
    /// Both modes scan only written pages, never 2^tag_bits entries.
    void for_each_valid(
        const std::function<void(std::uint64_t, Addr)>& fn) const;

    /// Live (valid) entries — tiered mode keeps a running count; flat mode
    /// counts on demand.
    std::uint64_t resident() const;
    /// Tiered: the bulk tier (a page lives while it holds a valid entry).
    const PagedArray<std::uint64_t>& bulk_tier() const { return bulk_; }

    std::uint64_t entries() const { return std::uint64_t{1} << config_.tag_bits; }
    const Config& config() const { return config_; }
    const TranslationStats& stats() const { return stats_; }
    /// Flat mode: the table SRAM. Tiered mode: the hot-cache SRAM (the
    /// only on-chip memory of the table — the bulk tier is off-chip).
    const hw::Sram& memory() const { return sram_; }
    hw::Sram& memory() { return sram_; }  ///< scrubber/corruption-test access

private:
    static std::uint64_t pack(Addr addr) { return (std::uint64_t{addr} << 1) | 1u; }
    static std::optional<Addr> unpack(std::uint64_t word) {
        return (word & 1u) != 0 ? std::optional<Addr>(static_cast<Addr>(word >> 1)) : std::nullopt;
    }
    std::optional<Addr> lookup_tiered(std::uint64_t value);
    void set_tiered(std::uint64_t value, Addr addr);
    void invalidate_tiered(std::uint64_t value);
    std::uint64_t hot_index(std::uint64_t value) const { return value & hot_mask_; }
    std::uint64_t hot_key(std::uint64_t value) const { return value >> config_.hot_bits; }
    /// True when the hot-cache `line` is valid and caches `value`.
    bool hot_holds(std::uint64_t line, std::uint64_t value) const {
        return (line & 1u) != 0 && (line >> (config_.addr_bits + 1)) == hot_key(value);
    }
    std::uint64_t pack_hot(std::uint64_t key, Addr addr) const {
        return (key << (config_.addr_bits + 1)) | pack(addr);
    }
    /// Write a bulk-tier word, keeping the resident count.
    void store_bulk(std::uint64_t value, std::uint64_t word);

    Config config_;
    bool tiered_ = false;
    hw::Clock& clock_;
    hw::Sram& sram_;
    std::uint64_t hot_mask_ = 0;  ///< tiered: 2^hot_bits - 1
    /// Tiered: the authoritative bulk tier (off-chip DRAM), in flat words.
    PagedArray<std::uint64_t> bulk_;
    std::uint64_t resident_ = 0;  ///< tiered: valid bulk-tier words
    mutable TranslationStats stats_;
};

}  // namespace wfqs::storage
