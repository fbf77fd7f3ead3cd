#include "core/sharded_sorter.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "common/assert.hpp"
#include "core/reshard.hpp"
#include "fault/errors.hpp"
#include "fault/scrubber.hpp"

namespace wfqs::core {

namespace {

/// splitmix64 finaliser — the flow-hash bank selector. Any fixed mixing
/// function works; this one spreads sequential flow ids across banks.
std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// Restores the outer SRAM prefix on every exit path — a throwing
/// TagSorter constructor must not leave the Simulation mis-naming
/// subsequently created SRAMs.
struct PrefixGuard {
    hw::Simulation& sim;
    std::string outer;
    ~PrefixGuard() { sim.set_sram_name_prefix(std::move(outer)); }
};

}  // namespace

ShardedSorter::ShardedSorter(const Config& config, hw::Simulation& sim)
    : clock_(sim.clock()),
      interleave_(config.select == BankSelect::kTagInterleave),
      bank_config_(config.bank),
      sim_(sim) {
    WFQS_REQUIRE(config.num_banks >= 1 &&
                     std::has_single_bit(std::uint64_t{config.num_banks}),
                 "bank count must be a power of two");
    // The interleave math is width-agnostic: it shifts *logical* 64-bit
    // tags, and each bank wraps its local tag to its own geometry. Guard
    // the headroom anyway so a 32-bit bank geometry plus the bank shift
    // cannot push the local physical space past what the bank represents.
    WFQS_REQUIRE(config.bank.geometry.tag_bits() +
                         static_cast<unsigned>(std::countr_zero(
                             std::uint64_t{config.num_banks})) <=
                     63,
                 "bank tag width plus interleave shift must stay below 64 bits");
    shift_ = static_cast<unsigned>(std::countr_zero(std::uint64_t{config.num_banks}));
    mask_ = config.num_banks - 1;
    ii_ = std::max(config.bank.geometry.levels + 1u, 4u);

    // Each bank instantiates its own tree/translation/tag-store memories in
    // the shared inventory, scoped "bank<i>." so the Table II model and the
    // fault tooling can address them individually. A single bank keeps the
    // unscoped names — the unsharded inventory, bit for bit.
    banks_.reserve(config.num_banks);
    {
        PrefixGuard guard{sim, sim.sram_name_prefix()};
        for (unsigned i = 0; i < config.num_banks; ++i) {
            if (config.num_banks > 1)
                sim.set_sram_name_prefix(guard.outer + "bank" + std::to_string(i) +
                                         ".");
            banks_.emplace_back(std::make_unique<TagSorter>(config.bank, sim));
        }
    }
    rebuild_routing();
}

void ShardedSorter::rebuild_routing() {
    routing_.clear();
    for (unsigned i = 0; i < banks_.size(); ++i)
        if (banks_[i].state == BankState::kActive) routing_.push_back(i);
    WFQS_ASSERT(!routing_.empty());
}

unsigned ShardedSorter::flow_bank_for(std::uint64_t flow_key) const {
    // Before any reshard routing_ is {0..N-1} with N a power of two, so
    // the modulo is exactly the historical `mix64(flow_key) & mask_` —
    // bit-identical placements for a never-resharded sorter.
    const unsigned primary = routing_[mix64(flow_key) % routing_.size()];
    if (!banks_[primary].sorter->full()) return primary;
    // Capacity spill: the primary bank is full, so probe the other active
    // banks in deterministic (ascending physical index, starting after the
    // primary) order for room. Flow-hash skew can then only be rejected on
    // capacity when the whole aggregate is full — full() is exact. When
    // everything is full, return the primary so the overflow throw is
    // attributed to the flow's own bank.
    const unsigned n = num_banks();
    for (unsigned k = 1; k < n; ++k) {
        const unsigned cand = (primary + k) % n;
        if (banks_[cand].state != BankState::kActive) continue;
        if (!banks_[cand].sorter->full()) return cand;
    }
    return primary;
}

std::uint64_t ShardedSorter::to_local(std::uint64_t tag) const {
    return interleave_ ? tag >> shift_ : tag;
}

std::uint64_t ShardedSorter::to_global(std::uint64_t local, unsigned bank) const {
    return interleave_ ? (local << shift_) | bank : local;
}

void ShardedSorter::refresh_head(unsigned i) {
    Bank& bank = banks_[i];
    size_ = size_ - bank.size + bank.sorter->size();
    bank.size = bank.sorter->size();
    const std::optional<std::uint64_t> local = bank.sorter->min_tag();
    ++stats_.head_merge_updates;
    // The winner is the smallest head, ties (possible under kFlowHash
    // only) on the lowest bank index. Only bank i's head changed, so it
    // wins outright when it beats the current winner (or is the winner
    // and did not rise), and a loser's change leaves the winner alone.
    const int bi = static_cast<int>(i);
    if (local) {
        const std::uint64_t head = to_global(*local, i);
        bank.head = head;
        if (min_bank_ < 0 || head < min_head_ || (head == min_head_ && bi <= min_bank_)) {
            min_bank_ = bi;
            min_head_ = head;
            return;
        }
    } else {
        bank.head.reset();
    }
    if (bi == min_bank_) sweep_heads();
}

void ShardedSorter::sweep_heads() {
    // The winner's head rose or emptied: sweep the cached head registers.
    // Ascending scan with a strict compare keeps ties on the lowest index.
    // Draining banks still participate — their entries must keep
    // departing in global order — and detached banks are empty, so their
    // nullopt heads drop out.
    min_bank_ = -1;
    for (unsigned b = 0; b < banks_.size(); ++b) {
        if (!banks_[b].head) continue;
        if (min_bank_ < 0 || *banks_[b].head < min_head_) {
            min_head_ = *banks_[b].head;
            min_bank_ = static_cast<int>(b);
        }
    }
}

std::uint64_t ShardedSorter::engage_bank(unsigned i, std::uint64_t arrival) {
    Bank& bank = banks_[i];
    const std::uint64_t issue = std::max(arrival, bank.free_at);
    stats_.bank_wait_cycles += issue - arrival;
    bank.wait_cycles += issue - arrival;
    bank.free_at = issue + ii_;
    ++bank.ops;
    return issue;
}

void ShardedSorter::finish_op(std::uint64_t issue_cycle, std::uint64_t measured_cycles) {
    stats_.sequential_cycles += measured_cycles;
    makespan_ = std::max(makespan_,
                         issue_cycle + std::max<std::uint64_t>(measured_cycles, ii_));
    ++arrivals_;
}

void ShardedSorter::notify_op() {
    if (controller_ != nullptr) controller_->on_op();
}

void ShardedSorter::insert(std::uint64_t tag, std::uint32_t payload,
                           std::uint64_t flow_key) {
    const unsigned b = bank_for(tag, flow_key);
    const std::uint64_t t0 = clock_.now();
    banks_[b].sorter->insert(to_local(tag), payload);
    finish_op(engage_bank(b, arrivals_), clock_.now() - t0);
    ++stats_.inserts;
    refresh_head(b);
    notify_op();
}

std::optional<SortedTag> ShardedSorter::peek_min() const {
    if (min_bank_ < 0) return std::nullopt;
    const auto head = banks_[static_cast<unsigned>(min_bank_)].sorter->peek_min();
    WFQS_ASSERT(head.has_value());
    return SortedTag{to_global(head->tag, static_cast<unsigned>(min_bank_)),
                     head->payload};
}

std::optional<SortedTag> ShardedSorter::pop_min() {
    if (min_bank_ < 0) return std::nullopt;
    const unsigned b = static_cast<unsigned>(min_bank_);
    const std::uint64_t t0 = clock_.now();
    const auto popped = banks_[b].sorter->pop_min();
    WFQS_ASSERT(popped.has_value());
    finish_op(engage_bank(b, arrivals_), clock_.now() - t0);
    ++stats_.pops;
    refresh_head(b);
    notify_op();
    return SortedTag{to_global(popped->tag, b), popped->payload};
}

SortedTag ShardedSorter::insert_and_pop(std::uint64_t tag, std::uint32_t payload,
                                        std::uint64_t flow_key) {
    WFQS_REQUIRE(min_bank_ >= 0, "insert_and_pop needs a non-empty sorter");
    const unsigned a = bank_for(tag, flow_key);
    const unsigned b = static_cast<unsigned>(min_bank_);
    const std::uint64_t t0 = clock_.now();
    SortedTag result;
    if (a == b) {
        // The incoming tag targets the departing minimum's bank: the
        // paper's fused four-cycle store + serve, one engagement.
        const SortedTag local = banks_[a].sorter->insert_and_pop(to_local(tag), payload);
        result = SortedTag{to_global(local.tag, a), local.payload};
        ++stats_.same_bank_combined;
        finish_op(engage_bank(a, arrivals_), clock_.now() - t0);
        refresh_head(a);
    } else {
        // Split engagement. The insert runs first — it validates before
        // mutating, so a rejected tag leaves every bank intact — and it
        // cannot disturb bank b's head, so the old global minimum still
        // departs (identical serve-then-store semantics to one bank).
        banks_[a].sorter->insert(to_local(tag), payload);
        const auto popped = banks_[b].sorter->pop_min();
        WFQS_ASSERT(popped.has_value());
        result = SortedTag{to_global(popped->tag, b), popped->payload};
        ++stats_.cross_bank_combined;
        const std::uint64_t arrival = arrivals_;
        const std::uint64_t issue_a = engage_bank(a, arrival);
        const std::uint64_t issue_b = engage_bank(b, arrival);
        finish_op(std::max(issue_a, issue_b), clock_.now() - t0);
        refresh_head(a);
        refresh_head(b);
    }
    ++stats_.combined_ops;
    notify_op();
    return result;
}

bool ShardedSorter::full() const {
    if (!interleave_) {
        // Exact: inserts spill around a capacity-full bank, so rejection
        // on capacity needs every routable bank full.
        for (const unsigned i : routing_)
            if (!banks_[i].sorter->full()) return false;
        return true;
    }
    // Interleaved placement is structural (tag mod N): one full bank can
    // reject the next insert even while others have room.
    for (const Bank& b : banks_)
        if (b.sorter->full()) return true;
    return false;
}

std::size_t ShardedSorter::capacity() const {
    std::size_t n = 0;
    for (const unsigned i : routing_) n += banks_[i].sorter->capacity();
    return n;
}

std::uint64_t ShardedSorter::window_span() const {
    const std::uint64_t bank_span = banks_[0].sorter->window_span();
    return interleave_ ? bank_span << shift_ : bank_span;
}

std::uint64_t ShardedSorter::modeled_cycles() const { return makespan_; }

double ShardedSorter::modeled_cycles_per_op() const {
    return arrivals_ == 0 ? 0.0
                          : static_cast<double>(makespan_) /
                                static_cast<double>(arrivals_);
}

double ShardedSorter::overlap_factor() const {
    return makespan_ == 0 ? 1.0
                          : static_cast<double>(stats_.sequential_cycles) /
                                static_cast<double>(makespan_);
}

unsigned ShardedSorter::grow_bank() {
    WFQS_REQUIRE(reshard_supported(),
                 "online bank add needs kFlowHash: interleaved placement is "
                 "structural (tag mod N), entries cannot move between banks");
    const unsigned idx = static_cast<unsigned>(banks_.size());
    {
        PrefixGuard guard{sim_, sim_.sram_name_prefix()};
        // Always scoped: even a sorter born with one (unscoped) bank names
        // online additions "bank<i>." — existing SRAM names never change.
        sim_.set_sram_name_prefix(guard.outer + "bank" + std::to_string(idx) + ".");
        banks_.emplace_back(std::make_unique<TagSorter>(bank_config_, sim_));
    }
    rebuild_routing();
    refresh_head(idx);
    return idx;
}

bool ShardedSorter::fence_bank(unsigned i) {
    if (!reshard_supported() || i >= banks_.size()) return false;
    if (banks_[i].state != BankState::kActive) return false;
    if (routing_.size() <= 1) return false;  // the routing table may not empty
    banks_[i].state = BankState::kDraining;
    rebuild_routing();
    return true;
}

bool ShardedSorter::maybe_detach(unsigned i) {
    if (i >= banks_.size()) return false;
    if (banks_[i].state != BankState::kDraining || !banks_[i].sorter->empty()) return false;
    // Tombstone: the TagSorter (and its SRAM inventory) stays allocated so
    // bank indices, metric names, and the Table II area model stay stable.
    banks_[i].state = BankState::kDetached;
    return true;
}

std::optional<MoveRecord> ShardedSorter::migrate_from(unsigned from) {
    WFQS_ASSERT(reshard_supported());  // interleave entries cannot move banks
    if (from >= banks_.size() || banks_[from].sorter->empty()) return std::nullopt;
    const auto head = banks_[from].sorter->peek_min();
    unsigned dest = num_banks();
    for (const unsigned cand : routing_) {
        if (cand == from) continue;
        if (banks_[cand].sorter->can_accept(head->tag)) {
            dest = cand;
            break;
        }
    }
    if (dest == num_banks()) {
        ++stats_.migration_stalls;
        return std::nullopt;
    }
    const std::uint64_t t0 = clock_.now();
    const auto popped = banks_[from].sorter->pop_min();
    WFQS_ASSERT(popped.has_value() && popped->tag == head->tag);
    try {
        banks_[dest].sorter->insert(popped->tag, popped->payload);
    } catch (const fault::FaultError&) {
        // A fresh upset struck the destination mid-insert. The entry is
        // still in hand — put it back where it came from (the slot it
        // occupied a moment ago is necessarily still acceptable) and
        // report a stall; only a second fault on that return path can
        // propagate, leaving the caller's scrub machinery to clean up.
        banks_[from].sorter->insert(popped->tag, popped->payload);
        refresh_head(from);
        stats_.migration_cycles += clock_.now() - t0;
        ++stats_.migration_stalls;
        return std::nullopt;
    }
    stats_.migration_cycles += clock_.now() - t0;
    ++stats_.migration_moves;
    // Stolen engagement: the move occupies both banks' pipelines for one
    // initiation interval in the current arrival slot — later datapath ops
    // queue behind it — but it is not an offered op, so arrivals_,
    // the bank op counts, and the wait tallies stay untouched and the makespan only
    // grows through the delayed real ops.
    banks_[from].free_at = std::max(arrivals_, banks_[from].free_at) + ii_;
    banks_[dest].free_at = std::max(arrivals_, banks_[dest].free_at) + ii_;
    refresh_head(from);
    refresh_head(dest);
    const MoveRecord record{from, dest, popped->tag, popped->payload};
    if (move_listener_) move_listener_(record);
    return record;
}

bool ShardedSorter::recover() {
    bool fenced = false;
    for (unsigned i = 0; i < banks_.size(); ++i) {
        if (banks_[i].state == BankState::kDetached) continue;
        fault::Scrubber scrubber(*banks_[i].sorter);
        const fault::ScrubOutcome outcome = scrubber.scrub();
        // Degraded mode: a rebuild means uncorrectable damage — fence the
        // bank out of the routing table (flow-hash only; interleave has no
        // way to rehome its entries) and drain it below.
        if (outcome.action == fault::ScrubAction::kRebuilt && fence_bank(i))
            fenced = true;
    }
    // A lossy rebuild (ScrubOutcome::entries_lost) can change — or empty —
    // any bank's head, so the cached head registers and comparator winner
    // must be re-derived before the next retrieve.
    for (unsigned i = 0; i < num_banks(); ++i) refresh_head(i);
    // Drain every draining bank — freshly fenced or fenced mid-migration
    // before the fault hit. The scrub already left each bank internally
    // consistent, so an in-flight incremental drain simply continues; a
    // stall (no destination can accept the head) leaves the bank fenced
    // for an attached controller to keep pumping.
    (void)fenced;
    for (unsigned i = 0; i < banks_.size(); ++i) {
        while (banks_[i].state == BankState::kDraining && !banks_[i].sorter->empty()) {
            try {
                if (!migrate_from(i)) break;
            } catch (const fault::FaultError&) {
                // The drain's own datapath op took a fresh upset (live
                // injection keeps running during recovery). Scrub the
                // damage and leave this bank fenced — an attached
                // controller resumes the drain on later ops; recover()
                // itself never throws.
                for (unsigned j = 0; j < banks_.size(); ++j) {
                    if (banks_[j].state == BankState::kDetached) continue;
                    fault::Scrubber rescuer(*banks_[j].sorter);
                    rescuer.scrub();
                }
                for (unsigned j = 0; j < num_banks(); ++j) refresh_head(j);
                break;
            }
        }
        maybe_detach(i);
    }
    return true;
}

void ShardedSorter::register_metrics(obs::MetricsRegistry& registry,
                                     const std::string& prefix) const {
    const auto cnt = [&](const char* name, const std::uint64_t ShardedStats::*field) {
        registry.register_counter_fn(prefix + "." + name,
                                     [this, field] { return stats_.*field; });
    };
    cnt("inserts", &ShardedStats::inserts);
    cnt("pops", &ShardedStats::pops);
    cnt("combined_ops", &ShardedStats::combined_ops);
    cnt("same_bank_combined", &ShardedStats::same_bank_combined);
    cnt("cross_bank_combined", &ShardedStats::cross_bank_combined);
    cnt("bank_wait_cycles", &ShardedStats::bank_wait_cycles);
    cnt("sequential_cycles", &ShardedStats::sequential_cycles);
    cnt("head_merge_updates", &ShardedStats::head_merge_updates);
    cnt("migration_moves", &ShardedStats::migration_moves);
    cnt("migration_cycles", &ShardedStats::migration_cycles);
    cnt("migration_stalls", &ShardedStats::migration_stalls);
    registry.register_counter_fn(prefix + ".modeled_cycles",
                                 [this] { return makespan_; });
    registry.register_gauge_fn(prefix + ".num_banks", [this] {
        return static_cast<double>(num_banks());
    });
    registry.register_gauge_fn(prefix + ".active_banks", [this] {
        return static_cast<double>(active_banks());
    });
    registry.register_gauge_fn(prefix + ".occupancy",
                               [this] { return static_cast<double>(size()); });
    registry.register_gauge_fn(prefix + ".modeled_cycles_per_op",
                               [this] { return modeled_cycles_per_op(); });
    registry.register_gauge_fn(prefix + ".overlap_factor",
                               [this] { return overlap_factor(); });
    for (unsigned i = 0; i < num_banks(); ++i) {
        const std::string bank = prefix + ".bank" + std::to_string(i);
        registry.register_counter_fn(bank + ".ops",
                                     [this, i] { return banks_[i].ops; });
        registry.register_counter_fn(bank + ".wait_cycles",
                                     [this, i] { return banks_[i].wait_cycles; });
        registry.register_gauge_fn(bank + ".occupancy", [this, i] {
            return static_cast<double>(banks_[i].sorter->size());
        });
        registry.register_gauge_fn(bank + ".state", [this, i] {
            return static_cast<double>(banks_[i].state);
        });
    }
}

}  // namespace wfqs::core
