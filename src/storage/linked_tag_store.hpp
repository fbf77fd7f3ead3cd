// Tag storage memory (§III-C): a sorted singly linked list kept in
// (external) SRAM, with an interleaved empty list of freed slots and a
// fresh-allocation counter (Fig. 10).
//
// The list itself never compares tag values — the insertion point always
// comes from the tree + translation table — which is what lets the sorter
// run a wrapped (mod-2^W) tag ordering without the memory caring.
//
// Timing (paper Fig. 9): entering a new tag costs exactly four clock
// cycles — two reads and two writes to the single-port entry SRAM:
//   1. read a free slot (empty-list head, or allocate fresh),
//   2. read the predecessor link,
//   3. write the predecessor back with its pointer redirected,
//   4. write the new link.
// A simultaneous insert + remove-smallest also completes in the same four
// cycles by reusing the departing head slot for the incoming tag instead
// of touching the empty list (§III-C).
//
// Wide-slot mode: when tag + payload + next no longer pack into one
// 64-bit word (32-bit tags with 24-bit payloads need 69+ bits), the
// entry is striped across two parallel SRAMs — "tag-store" holds
// tag | next (the link walk's critical path), "tag-store-hi" holds the
// payload. Both are accessed in the same cycle (parallel banks of one
// logical memory), so the 4-cycle FSM and every cycle count are
// unchanged; narrow configurations keep the single-SRAM layout
// bit-identically.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/assert.hpp"
#include "common/bits.hpp"
#include "hw/simulation.hpp"

namespace wfqs::storage {

/// Address of a list slot. kNullAddr is the null pointer.
using Addr = std::uint32_t;
inline constexpr Addr kNullAddr = ~Addr{0};

struct TagEntry {
    std::uint64_t tag = 0;
    std::uint32_t payload = 0;  ///< packet-buffer pointer travelling with the tag
};

struct StoreStats {
    std::uint64_t inserts = 0;
    std::uint64_t pops = 0;
    std::uint64_t combined_ops = 0;
    std::uint64_t worst_cycles_per_op = 0;
};

class LinkedTagStore {
public:
    struct Config {
        std::size_t capacity = 4096;  ///< number of list slots
        unsigned tag_bits = 12;
        unsigned payload_bits = 24;
    };

    LinkedTagStore(const Config& config, hw::Simulation& sim);

    /// Insert `entry` directly after the link at `pred`; returns the new
    /// slot's address. Exactly 4 cycles. Throws std::overflow_error when
    /// the memory is full.
    Addr insert_after(Addr pred, const TagEntry& entry);

    /// Insert `entry` as the new list head (no predecessor). 4 cycles.
    Addr insert_at_head(const TagEntry& entry);

    /// Remove and return the smallest (head) entry; its slot joins the
    /// empty list. 2 cycles (1 read + 1 write). Returns nullopt when empty.
    std::optional<TagEntry> pop_head();

    /// §III-C simultaneous case: remove the head and insert `entry` after
    /// `pred` (kNullAddr, or the head's own address, makes the new entry
    /// the head) — the departing slot is reused, 4 cycles total.
    /// Precondition: list non-empty.
    struct CombinedResult {
        TagEntry popped;
        Addr inserted_at;
    };
    CombinedResult insert_and_pop_head(Addr pred, const TagEntry& entry);

    /// The smallest tag, readable at any time from the head register
    /// ("the smallest tag value ... is always known") — no cycles.
    std::optional<TagEntry> peek_head() const {
        if (size_ == 0) return std::nullopt;
        return peek_slot_raw(head_).entry;
    }
    Addr head_addr() const { return head_; }

    /// The tag of the entry after the head, if any (one register-speed
    /// comparison in hardware; here a peek). Used by the sorter to detect
    /// that the last duplicate of a value is departing.
    std::optional<std::uint64_t> peek_second_tag() const {
        if (size_ < 2) return std::nullopt;
        const Addr next = peek_slot_raw(head_).next;
        if (next == kNullAddr || next >= config_.capacity) throw_broken_head_link();
        return peek_slot_raw(next).entry.tag;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    bool full() const;
    std::size_t capacity() const { return config_.capacity; }

    /// Walk the sorted list (tests/analysis only: peeks, no cycles).
    /// Throws fault::IntegrityError on a broken chain.
    std::vector<TagEntry> snapshot() const;
    /// Freed-slot count (fresh allocations minus live entries).
    std::size_t empty_list_length() const;

    // -- integrity surface (audit/repair/tests; no ports, no cycles) ------

    /// One stored slot as the auditor sees it: ECC-corrected view of the
    /// packed word. `next == kNullAddr` is the unpacked null.
    struct SlotView {
        TagEntry entry;
        Addr next = kNullAddr;
    };
    SlotView peek_slot(Addr addr) const;
    /// Maintenance write of a full slot (repairs; re-encodes check bits).
    void poke_slot(Addr addr, const SlotView& slot);

    Addr empty_head() const { return empty_head_; }
    Addr free_tail() const { return free_tail_; }
    std::uint32_t fresh_count() const { return fresh_counter_; }

    /// Rewrite the empty list as the given chain of slots (repair path:
    /// the stale-pointer trick cannot survive arbitrary corruption, so the
    /// scrubber materialises an explicit chain with poke writes).
    void relink_free_list(const std::vector<Addr>& free_slots);

    /// Forget all contents and bookkeeping (rebuild path — the sorter
    /// drains what it can, resets, and re-inserts). Stats are preserved;
    /// the backing SRAM words are left as-is and re-used via the fresh
    /// counter.
    void reset();

    const StoreStats& stats() const { return stats_; }
    const hw::Sram& memory() const { return sram_; }
    hw::Sram& memory() { return sram_; }  ///< scrubber/corruption-test access
    /// Wide-slot mode's payload stripe; nullptr in the single-word layout.
    hw::Sram* hi_memory() { return hi_sram_; }
    const hw::Sram* hi_memory() const { return hi_sram_; }
    bool wide() const { return hi_sram_ != nullptr; }

private:
    struct Slot {
        TagEntry entry;
        Addr next;
    };
    // Slot packing and the datapath slot accesses are defined here so the
    // sorter's calls (peek_head, peek_second_tag) inline across units.
    std::uint64_t pack(const Slot& s) const {
        WFQS_ASSERT(s.entry.tag < (std::uint64_t{1} << config_.tag_bits));
        WFQS_ASSERT(config_.payload_bits == 32 ||
                    s.entry.payload < (std::uint64_t{1} << config_.payload_bits));
        const std::uint64_t next_field = next_field_of(s.next);
        WFQS_ASSERT(next_field < (std::uint64_t{1} << next_bits_));
        return s.entry.tag | (std::uint64_t{s.entry.payload} << config_.tag_bits) |
               (next_field << (config_.tag_bits + config_.payload_bits));
    }
    Slot unpack(std::uint64_t word) const {
        Slot s;
        s.entry.tag = word & low_mask(config_.tag_bits);
        s.entry.payload = static_cast<std::uint32_t>((word >> config_.tag_bits) &
                                                     low_mask(config_.payload_bits));
        s.next = next_of(word >> (config_.tag_bits + config_.payload_bits));
        return s;
    }
    /// Wide mode: tag | next.
    std::uint64_t pack_lo(const Slot& s) const {
        WFQS_ASSERT(s.entry.tag < (std::uint64_t{1} << config_.tag_bits));
        return s.entry.tag | (next_field_of(s.next) << config_.tag_bits);
    }
    /// Wide mode: payload = 0.
    Slot unpack_lo(std::uint64_t word) const {
        Slot s;
        s.entry.tag = word & low_mask(config_.tag_bits);
        s.entry.payload = 0;
        s.next = next_of(word >> config_.tag_bits);
        return s;
    }
    /// The stored next field encodes null as `capacity`.
    std::uint64_t next_field_of(Addr next) const {
        return next == kNullAddr ? config_.capacity : static_cast<std::uint64_t>(next);
    }
    Addr next_of(std::uint64_t next_field) const {
        return next_field == config_.capacity ? kNullAddr : static_cast<Addr>(next_field);
    }
    /// Datapath slot access: one cycle's worth of (parallel) SRAM
    /// traffic — a single access in narrow mode, one per stripe in wide.
    Slot read_slot(Addr addr) {
        if (hi_sram_ == nullptr) return unpack(sram_.read(addr));
        Slot s = unpack_lo(sram_.read(addr));
        s.entry.payload = static_cast<std::uint32_t>(hi_sram_->read(addr));
        return s;
    }
    void write_slot(Addr addr, const Slot& s) {
        if (hi_sram_ == nullptr) {
            sram_.write(addr, pack(s));
            return;
        }
        sram_.write(addr, pack_lo(s));
        hi_sram_->write(addr, s.entry.payload);
    }
    /// Maintenance views (no ports, no counters, ECC-corrected).
    Slot peek_slot_raw(Addr addr) const {
        if (hi_sram_ == nullptr) return unpack(sram_.peek_corrected(addr));
        Slot s = unpack_lo(sram_.peek_corrected(addr));
        s.entry.payload = static_cast<std::uint32_t>(hi_sram_->peek_corrected(addr));
        return s;
    }
    void poke_slot_raw(Addr addr, const Slot& s);
    [[noreturn]] void throw_broken_head_link() const;
    Addr allocate_slot();  ///< cycle 1 of an insert

    Config config_;
    hw::Sram& sram_;
    unsigned next_bits_;  ///< next-pointer field width (`capacity` encodes null)
    hw::Sram* hi_sram_ = nullptr;
    hw::Clock& clock_;
    Addr head_ = kNullAddr;        ///< head of the sorted list (smallest tag)
    Addr empty_head_ = kNullAddr;  ///< head of the empty (free) list
    Addr free_tail_ = kNullAddr;   ///< most recently freed slot
    Addr free_tail_stale_next_ = kNullAddr;  ///< that slot's stale pointer
    std::uint32_t fresh_counter_ = 0;
    std::size_t size_ = 0;
    StoreStats stats_;
};

}  // namespace wfqs::storage
