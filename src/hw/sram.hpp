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
// Capacity note: blocks above kPagedThreshold words switch to a paged
// backing store (4096-word pages allocated on first write) so a
// 2^26-word tree leaf level or a multi-million-entry bulk tier is
// simulatable without eagerly committing gigabytes of host memory. An
// absent page reads as all-zero — exactly the dense block's initial
// state — and every observable behaviour (port budget, stats, ECC,
// injection) is identical; only the host-side representation differs.
// Paged blocks always take the slow lane (`words_` stays empty, so the
// inline fast-lane bounds check routes every access there).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

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
    static constexpr std::size_t kPageWords = 4096;
    /// Blocks above this many words use the paged backing store.
    static constexpr std::size_t kPagedThreshold = std::size_t{1} << 20;

    /// `word_bits` is informational (drives the area model); words are held
    /// in uint64 and masked on write. `totals`, when given, is the running
    /// aggregate this block adds its counters to; it must outlive the block.
    Sram(std::string name, std::size_t num_words, unsigned word_bits, Clock& clock,
         unsigned ports = 1, SramStats* totals = nullptr);
    /// The page directory points into pages_, so a copy would alias it.
    Sram(const Sram&) = delete;
    Sram& operator=(const Sram&) = delete;

    std::uint64_t read(std::size_t addr) {
        if (fast_path_ && addr < words_.size()) [[likely]] {
            charge_port();
            bump(&SramStats::reads);
            return words_[addr];
        }
        return read_slow(addr);
    }

    void write(std::size_t addr, std::uint64_t value) {
        if (fast_path_ && addr < words_.size()) [[likely]] {
            charge_port();
            bump(&SramStats::writes);
            words_[addr] = value & word_mask_;
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
    /// case (unprotected, no injector, dense) is the same inline lane as
    /// read(); the rest decodes out of line.
    std::uint64_t peek_corrected(std::size_t addr) const {
        if (fast_path_ && addr < words_.size()) [[likely]] return words_[addr];
        return peek_corrected_slow(addr);
    }

    /// Maintenance zero of the whole block (no ports, no counters): the
    /// paged backing drops every page; dense blocks are filled in place.
    /// Used by bulk invalidation paths that would otherwise sweep every
    /// word of a block far larger than its live contents.
    void wipe();

    /// Invoke `fn(addr, word)` for every *nonzero* word, corrected
    /// through the protection exactly like peek_corrected. Dense blocks
    /// scan every word; paged blocks visit only allocated pages (absent
    /// pages are all-zero by construction, so the view is identical).
    /// This is the audit/repair primitive that keeps maintenance sweeps
    /// proportional to live state, not address-space size.
    void for_each_nonzero_word(
        const std::function<void(std::size_t, std::uint64_t)>& fn) const;
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
    /// One page of the sparse backing store. `check` is empty until the
    /// block is protected, then holds one check word per data word.
    struct Page {
        std::vector<std::uint64_t> data;
        std::vector<std::uint64_t> check;
    };

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
        fast_path_ = injector_ == nullptr && check_words_.empty();
    }

    // Paged-backing helpers (defined in sram.cpp). Raw accessors return
    // the stored bits; an absent page reads as zero data with a
    // consistent zero check word.
    bool protected_() const { return !check_words_.empty() || paged_protected_; }
    Page* find_page(std::size_t page_index) { return page_dir_[page_index]; }
    const Page* find_page(std::size_t page_index) const { return page_dir_[page_index]; }
    Page& touch_page(std::size_t page_index);
    void drop_page(std::size_t page_index);
    std::uint64_t raw_word(std::size_t addr) const;
    std::uint64_t raw_check(std::size_t addr) const;
    void store_word(std::size_t addr, std::uint64_t data);
    void store_check(std::size_t addr, std::uint64_t check);

    std::string name_;
    unsigned word_bits_;
    std::uint64_t word_mask_;
    Clock& clock_;
    unsigned ports_;
    std::size_t num_words_ = 0;
    bool paged_ = false;
    /// Dense backing (empty in paged mode, so the inline fast lane's
    /// bounds check routes paged accesses to the slow lane).
    std::vector<std::uint64_t> words_;
    /// Sparse backing, keyed by addr / kPageWords. Absent = all-zero.
    /// Owns the live pages (element addresses are stable across rehash);
    /// maintenance sweeps iterate it, so they visit only live pages.
    std::unordered_map<std::size_t, Page> pages_;
    /// Page directory for the datapath: one slot per page of the block,
    /// nullptr when absent — an O(1) lookup instead of a hash probe.
    std::vector<Page*> page_dir_;
    fault::EccCodec codec_;
    std::vector<std::uint64_t> check_words_;  ///< dense mode; empty until protected
    bool paged_protected_ = false;            ///< paged mode protection flag
    std::uint64_t zero_check_ = 0;            ///< codec_.encode(0) when protected
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
