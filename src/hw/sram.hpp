// Behavioural SRAM model with per-cycle port accounting, optional word
// protection (parity / SECDED ECC), and a fault-injection hook.
//
// Models the paper's on-chip SRAM blocks (tree level 3, translation
// table) and the external SRAM holding the tag storage linked list.
// Reads and writes complete functionally in the calling cycle; what the
// model enforces is the *port budget*: at most `ports` accesses may
// occur in any one clock cycle (single-port for all memories in the
// paper). Violations throw fault::SramPortConflict — they would be a bus
// conflict in silicon — as do out-of-range addresses
// (fault::SramAddressError), which a corrupted pointer can legally
// produce once a FaultInjector is attached.
//
// Protection (enable_protection) stores a check word beside each data
// word, exactly like a widened SRAM macro: reads decode, transparently
// correct single-bit upsets in place (scrub-on-read, no extra cycle —
// a simplification over a real read-modify-write scrubber), and throw
// fault::UncorrectableEccError on detected-but-unfixable words. The
// corrected/uncorrectable tallies live in SramStats and surface through
// Simulation::register_metrics.
//
// Access counters feed Table I ("worst-case memory accesses per lookup")
// and the Table II area/power model.
//
// Host-speed note: the common case — protection off, no injector — runs
// through an inlined fast lane guarded by a single predictable branch
// (`fast_path_`). The lane keeps the exact same observable behaviour as
// the full path (bounds check, port budget, stats, peak tracking); only
// the codec and injector dispatch are skipped, because both are
// structurally inert when disabled. This is what lets the behavioural
// benches sweep millions of ops per second on the host.
//
// Every counter bump also lands in a running aggregate (`totals`, the
// owning Simulation's inventory-wide SramStats), so the inventory total
// is a register read rather than a sweep over every block. reset_stats()
// takes this block's share back out, keeping the aggregate exact.
//
// Capacity note: blocks above kPagedThreshold words keep their words in a
// PagedArray (common/paged_array.hpp), so host memory follows what was
// written; an unwritten word reads as zero like a fresh dense block.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/paged_array.hpp"
#include "fault/ecc.hpp"
#include "hw/clock.hpp"

namespace wfqs::fault {
class FaultInjector;
}

namespace wfqs::hw {

struct SramStats {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t flash_clears = 0;
    std::uint64_t ecc_corrected = 0;      ///< single-bit errors fixed on read
    std::uint64_t ecc_uncorrectable = 0;  ///< detected-but-unfixable reads

    std::uint64_t total() const { return reads + writes + flash_clears; }
};

class Sram {
public:
    /// Words per page of the sparse backing store.
    static constexpr std::size_t kPageWords = PagedArray<std::uint64_t>::kPageSize;
    /// Blocks above this many words use the paged backing store.
    static constexpr std::size_t kPagedThreshold = std::size_t{1} << 19;

    /// `word_bits` is informational (drives the area model); words are held
    /// in uint64 and masked on write. `totals`, when given, is the running
    /// aggregate this block adds its counters to; it must outlive the block.
    Sram(std::string name, std::size_t num_words, unsigned word_bits, Clock& clock,
         unsigned ports = 1, SramStats* totals = nullptr);
    /// totals_ may point into the block itself, so a copy would alias it.
    Sram(const Sram&) = delete;
    Sram& operator=(const Sram&) = delete;

    std::uint64_t read(std::size_t addr) {
        if (fast_path_ && addr < num_words_) [[likely]] {
            charge_port();
            bump(&SramStats::reads);
            return raw_word(addr);
        }
        return read_slow(addr);
    }

    void write(std::size_t addr, std::uint64_t value) {
        if (fast_path_ && addr < num_words_) [[likely]] {
            charge_port();
            bump(&SramStats::writes);
            store_word(addr, value & word_mask_);
            return;
        }
        write_slow(addr, value);
    }

    /// Clears `count` consecutive words in one access — models the paper's
    /// sector invalidation where "all child nodes stemming from this bit
    /// are isolated and deleted at the same time" (a row-clear, not a
    /// word-by-word sweep).
    void flash_clear(std::size_t addr, std::size_t count);

    // -- protection & faults ----------------------------------------------

    /// Switch on word protection; existing contents are re-encoded. The
    /// data word layout is unchanged — check bits live in a side array.
    void enable_protection(fault::Protection protection);
    fault::Protection protection() const { return codec_.protection(); }
    /// Stored check bits per word under the current protection.
    unsigned check_width() const { return codec_.check_width(); }

    /// Attach (or detach with nullptr) a fault injector; it is invoked on
    /// every datapath access before ECC decode.
    void set_fault_injector(fault::FaultInjector* injector) {
        injector_ = injector;
        update_fast_path();
    }

    /// Flip stored bits in place — the physical upset primitive used by
    /// the injector and by corruption tests. No ports, no counters, no
    /// re-encode: the word is now inconsistent with its check bits.
    void corrupt(std::size_t addr, std::uint64_t data_xor, std::uint64_t check_xor = 0);

    /// Maintenance write used by the scrubber's repairs: stores `value`
    /// and re-encodes its check word, bypassing ports, counters, and the
    /// injector (background repair traffic absorbed by banking headroom).
    void poke(std::size_t addr, std::uint64_t value);

    /// Maintenance sweep over the whole block: correct every correctable
    /// word in place and re-encode the check bits of uncorrectable ones
    /// (their raw data becomes authoritative, so the datapath stops
    /// throwing on them and the auditor judges the *content* instead).
    /// Corrections and writedowns are tallied in the ECC counters.
    void relaunder();

    // -- inspection (tests/analysis/audit only; no ports, no counters) ----

    /// Raw stored data word, exactly as the cells hold it.
    std::uint64_t peek(std::size_t addr) const;
    /// Raw stored check word (0 when unprotected).
    std::uint64_t peek_check(std::size_t addr) const;
    /// The word as a datapath read would return it: decoded through the
    /// protection with single-bit correction applied (but *not* written
    /// back). Uncorrectable words are returned raw — the auditor treats
    /// them as corrupt. Identical to peek() when unprotected. The common
    /// case (unprotected, no injector) is the same inline lane as read();
    /// the rest decodes out of line.
    std::uint64_t peek_corrected(std::size_t addr) const {
        if (fast_path_ && addr < num_words_) [[likely]] return raw_word(addr);
        return peek_corrected_slow(addr);
    }

    /// Maintenance zero of the whole block (no ports, no counters): the
    /// paged backing frees every page; dense blocks are filled in place.
    /// Used by bulk invalidation paths that would otherwise sweep every
    /// word of a block far larger than its live contents.
    void wipe();

    /// Invoke `fn(addr, word)` for every *nonzero* word, ascending,
    /// corrected through the protection exactly like peek_corrected. Dense
    /// blocks scan every word; paged blocks visit only allocated pages.
    /// This is the audit/repair primitive that keeps maintenance sweeps
    /// proportional to live state, not address-space size.
    void for_each_nonzero_word(const std::function<void(std::size_t, std::uint64_t)>& fn) const {
        for_each_nonzero_word_in_range(0, num_words_, fn);
    }
    /// Same, restricted to addresses in [first, first + count).
    void for_each_nonzero_word_in_range(
        std::size_t first, std::size_t count,
        const std::function<void(std::size_t, std::uint64_t)>& fn) const;

    const std::string& name() const { return name_; }
    std::size_t num_words() const { return num_words_; }
    unsigned word_bits() const { return word_bits_; }
    bool paged() const { return paged_; }
    std::uint64_t bit_capacity() const {
        return static_cast<std::uint64_t>(num_words_) * word_bits_;
    }
    const SramStats& stats() const { return stats_; }
    void reset_stats();

    /// Highest number of accesses observed in any single cycle (≤ ports).
    unsigned peak_accesses_per_cycle() const { return peak_per_cycle_; }

private:
    void check_addr(std::size_t addr, const char* op) const;
    /// Port accounting shared by both lanes: the counters update with
    /// straight-line selects; only the budget violation branches (into a
    /// throw, which silicon would flag as a bus conflict).
    void charge_port() {
        const std::uint64_t now = clock_.now();
        used_this_cycle_ = (now == last_cycle_) ? used_this_cycle_ + 1 : 1;
        last_cycle_ = now;
        peak_per_cycle_ = std::max(peak_per_cycle_, used_this_cycle_);
        if (used_this_cycle_ > ports_) [[unlikely]] throw_port_conflict();
    }
    [[noreturn]] void throw_port_conflict() const;
    /// Count one event in this block's stats and in the running aggregate.
    void bump(std::uint64_t SramStats::*field) {
        ++(stats_.*field);
        ++(totals_->*field);
    }
    std::uint64_t peek_corrected_slow(std::size_t addr) const;
    void inject(std::size_t addr);
    /// Full-featured lanes: address check + codec + injector dispatch.
    std::uint64_t read_slow(std::size_t addr);
    void write_slow(std::size_t addr, std::uint64_t value);
    void update_fast_path() {
        fast_path_ = injector_ == nullptr && !protected_();
    }

    // Stored bits, whichever the backing. Check words are stored XOR
    // zero_check_: an unwritten word is zero with a consistent check.
    bool protected_() const { return codec_.protection() != fault::Protection::kNone; }
    std::uint64_t raw_word(std::size_t addr) const {
        return paged_ ? paged_words_.get(addr) : words_[addr];
    }
    void store_word(std::size_t addr, std::uint64_t data) {
        if (paged_)
            paged_words_.set(addr, data);
        else
            words_[addr] = data;
    }
    std::uint64_t raw_check(std::size_t addr) const { return checks_.get(addr) ^ zero_check_; }
    void store_check(std::size_t addr, std::uint64_t check) {
        checks_.set(addr, check ^ zero_check_);
    }
    /// Ascending `fn(addr)` over [first, first + count): every word of a
    /// dense block, each word with nonzero data or stored check if paged.
    template <typename Fn>
    void visit_candidates(std::size_t first, std::size_t count, Fn&& fn) const;

    std::string name_;
    unsigned word_bits_;
    std::uint64_t word_mask_;
    Clock& clock_;
    unsigned ports_;
    std::size_t num_words_ = 0;
    bool paged_ = false;
    std::vector<std::uint64_t> words_;       ///< dense backing (empty when paged)
    PagedArray<std::uint64_t> paged_words_;  ///< paged backing (empty when dense)
    PagedArray<std::uint64_t> checks_;       ///< both backings; empty unless protected
    fault::EccCodec codec_;
    std::uint64_t zero_check_ = 0;  ///< codec_.encode(0)
    fault::FaultInjector* injector_ = nullptr;
    bool fast_path_ = true;  ///< no codec, no injector: take the inline lane
    SramStats stats_;
    SramStats detached_totals_;  ///< aggregate sink of a block outside a Simulation
    SramStats* totals_ = &detached_totals_;
    std::uint64_t last_cycle_ = ~std::uint64_t{0};
    unsigned used_this_cycle_ = 0;
    unsigned peak_per_cycle_ = 0;
};

}  // namespace wfqs::hw
