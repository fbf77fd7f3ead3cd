// Differential drivers: replay a proptest op sequence against a device
// under test and the golden models of src/ref in lockstep, reporting the
// first divergence as a human-readable message (nullopt = conformant).
//
// Four device families share the interpreter:
//
//   * diff_tag_sorter  — core::TagSorter (any geometry, any matcher
//     engine, any capacity, paper-mode or not) vs ref::RefSorter. Checks
//     every result, exception parity on rejected tags, size/peek parity
//     after every op, audit() cleanliness, and the cycle-accounting
//     closure insert_cycles_total + pop_cycles_total == clock delta.
//   * diff_sharded_sorter — core::ShardedSorter (any bank count, both
//     bank-select policies) vs ref::RefSorter, plus per-bank audits and
//     the sharded accounting closure sequential_cycles == clock delta.
//   * diff_matcher     — gate-level netlists and the behavioural model vs
//     ref_match over exhaustive small words, structured edge words, and
//     random words.
//   * diff_pifo_vs_gps — a full fair-queueing scheduler run
//     (PifoScheduler with the WFQ or WF2Q+ rank policy) vs the GPS fluid
//     departure bound (ref::RefGpsScheduler).
//
// Tag deltas are interpreted relative to the *reference* minimum (or the
// last tag seen when empty), so sequences stay meaningful as the shrinker
// mutates them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/factory.hpp"
#include "core/ffs_sorter.hpp"
#include "core/reshard.hpp"
#include "core/sharded_sorter.hpp"
#include "core/tag_sorter.hpp"
#include "hw/simulation.hpp"
#include "matcher/matcher.hpp"
#include "net/sim_driver.hpp"
#include "net/traffic_gen.hpp"
#include "proptest/proptest.hpp"
#include "ref/ref_gps.hpp"
#include "ref/ref_matcher.hpp"
#include "ref/ref_rank_oracle.hpp"
#include "ref/ref_sorter.hpp"
#include "sched_prog/pifo_scheduler.hpp"
#include "sched_prog/rifo.hpp"
#include "sched_prog/sp_pifo.hpp"

namespace wfqs::proptest {

// ------------------------------------------------------------ interpreter

struct DiffOptions {
    /// Run the burst check (audit + cycle accounting) every this many ops;
    /// 0 = only after the final op. The check is pure inspection, so any
    /// cadence is legal — denser catches corruption closer to its cause.
    std::size_t audit_every = 256;
    /// Compare payloads, not just tags. Must be off when the DUT's
    /// duplicate order legitimately differs from global FIFO (flow-hash
    /// sharding with tag-independent flow keys).
    bool compare_payloads = true;
    std::uint32_t payload_mask = 0xFF'FFFF;  ///< 24-bit packet pointers
};

/// Type-erased device under test. Each hook maps one op onto the DUT;
/// `burst_check` (optional) inspects invariants the interpreter cannot
/// see through the datapath interface; `before_op` (optional) publishes
/// the op index before the op runs (the sharded driver derives flow keys
/// from it).
struct DutHooks {
    std::function<void(std::uint64_t, std::uint32_t)> insert;
    std::function<std::optional<core::SortedTag>()> pop;
    std::function<core::SortedTag(std::uint64_t, std::uint32_t)> combined;
    std::function<std::optional<core::SortedTag>()> peek;
    std::function<std::size_t()> size;
    std::function<std::optional<std::string>(std::size_t)> burst_check;
    std::function<void(std::size_t)> before_op;
    /// Executes one reshard op (kAddBank/kRemoveBank/kPumpMigration) on
    /// the DUT, returning a divergence message on failure. Targets without
    /// this hook skip reshard ops, so old artifacts and non-sharded
    /// targets replay unchanged.
    std::function<std::optional<std::string>(const Op&)> reshard;
    /// Runs after every op, *before* the post-op parity block — the
    /// sharded driver drains queued migration moves into the reference
    /// here (a datapath op's stolen cycles may have moved entries, and the
    /// reference must see [op, then moves] in DUT order).
    std::function<std::optional<std::string>(std::size_t)> post_op;
};

inline std::uint64_t apply_delta(std::uint64_t base, std::int64_t delta) {
    if (delta >= 0) return base + static_cast<std::uint64_t>(delta);
    const std::uint64_t down = static_cast<std::uint64_t>(-delta);
    return base > down ? base - down : 0;
}

/// Replay `ops` against the DUT and the reference in lockstep. RefModel
/// is ref::RefSorter or any type with the same surface (ShardedRef
/// below adds per-bank window/capacity modelling).
template <typename RefModel>
inline std::optional<std::string> run_ops(const OpSeq& ops, RefModel& ref,
                                          const DutHooks& dut,
                                          const DiffOptions& opt = {}) {
    const auto fail = [](std::size_t i, const std::string& what) {
        return "op " + std::to_string(i) + ": " + what;
    };
    const auto show = [](const core::SortedTag& e) {
        return "{tag " + std::to_string(e.tag) + ", payload " +
               std::to_string(e.payload) + "}";
    };
    const auto mismatch = [&](std::size_t i, const char* what,
                              const core::SortedTag& want,
                              const core::SortedTag& got) {
        return fail(i, std::string(what) + " diverged: reference " + show(want) +
                           ", DUT " + show(got));
    };

    std::uint64_t cursor = 0;  // delta base while the sorter is empty
    std::uint32_t seq = 0;     // payload generator
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const Op& op = ops[i];
        if (dut.before_op) dut.before_op(i);
        const std::uint64_t base = ref.min_tag().value_or(cursor);
        switch (op.kind) {
            case OpKind::kInsert: {
                const std::uint64_t tag = apply_delta(base, op.delta);
                const std::uint32_t payload = seq++ & opt.payload_mask;
                if (ref.would_accept(tag)) {
                    try {
                        dut.insert(tag, payload);
                    } catch (const std::exception& e) {
                        return fail(i, "DUT rejected insert(tag " +
                                           std::to_string(tag) +
                                           ") the reference accepts: " + e.what());
                    }
                    ref.insert(tag, payload);
                    cursor = tag;
                } else {
                    // Exception parity: the DUT must reject too, with one of
                    // the two contract exception types, leaving state intact
                    // (verified by the post-op parity below).
                    bool rejected = false;
                    try {
                        dut.insert(tag, payload);
                    } catch (const std::overflow_error&) {
                        rejected = true;
                    } catch (const std::invalid_argument&) {
                        rejected = true;
                    }
                    if (!rejected)
                        return fail(i, "DUT accepted insert(tag " +
                                           std::to_string(tag) +
                                           ") the reference rejects (window/"
                                           "capacity discipline)");
                }
                break;
            }
            case OpKind::kPop: {
                const auto want = ref.pop_min();
                const auto got = dut.pop();
                if (want.has_value() != got.has_value())
                    return fail(i, std::string("pop_min emptiness diverged: "
                                               "reference ") +
                                       (want ? "returned an entry" : "was empty") +
                                       ", DUT " +
                                       (got ? "returned an entry" : "was empty"));
                if (want) {
                    if (got->tag != want->tag ||
                        (opt.compare_payloads && got->payload != want->payload))
                        return mismatch(i, "pop_min", *want, *got);
                    cursor = want->tag;
                }
                break;
            }
            case OpKind::kCombined: {
                if (ref.empty()) break;  // precondition not met: skip
                const std::uint64_t tag = apply_delta(base, op.delta);
                const std::uint32_t payload = seq++ & opt.payload_mask;
                if (ref.would_accept_combined(tag)) {
                    core::SortedTag got;
                    try {
                        got = dut.combined(tag, payload);
                    } catch (const std::exception& e) {
                        return fail(i, "DUT rejected insert_and_pop(tag " +
                                           std::to_string(tag) +
                                           ") the reference accepts: " + e.what());
                    }
                    const core::SortedTag want = ref.insert_and_pop(tag, payload);
                    if (got.tag != want.tag ||
                        (opt.compare_payloads && got.payload != want.payload))
                        return mismatch(i, "insert_and_pop", want, got);
                    cursor = want.tag;
                } else {
                    // Window violations throw invalid_argument; a sharded
                    // cross-bank combined op can also overflow its insert
                    // bank (the fused op has no capacity precondition).
                    bool rejected = false;
                    try {
                        (void)dut.combined(tag, payload);
                    } catch (const std::invalid_argument&) {
                        rejected = true;
                    } catch (const std::overflow_error&) {
                        rejected = true;
                    }
                    if (!rejected)
                        return fail(i, "DUT accepted insert_and_pop(tag " +
                                           std::to_string(tag) +
                                           ") the reference rejects (window "
                                           "discipline)");
                }
                break;
            }
            case OpKind::kAddBank:
            case OpKind::kRemoveBank:
            case OpKind::kPumpMigration: {
                if (!dut.reshard) break;  // target has no reshard surface: skip
                if (auto err = dut.reshard(op)) return fail(i, *err);
                break;
            }
        }

        // Drain DUT-side migration moves into the reference before parity:
        // the op above may have stolen cycles to move entries.
        if (dut.post_op) {
            if (auto err = dut.post_op(i)) return fail(i, *err);
        }

        // Post-op parity: occupancy and the head register.
        if (dut.size() != ref.size())
            return fail(i, "size diverged: reference " + std::to_string(ref.size()) +
                               ", DUT " + std::to_string(dut.size()));
        const auto want_head = ref.peek_min();
        const auto got_head = dut.peek();
        if (want_head.has_value() != got_head.has_value())
            return fail(i, "peek_min emptiness diverged");
        if (want_head &&
            (got_head->tag != want_head->tag ||
             (opt.compare_payloads && got_head->payload != want_head->payload)))
            return mismatch(i, "peek_min", *want_head, *got_head);

        if (dut.burst_check && opt.audit_every != 0 &&
            (i + 1) % opt.audit_every == 0) {
            if (auto err = dut.burst_check(i)) return fail(i, *err);
        }
    }
    if (dut.burst_check) {
        if (auto err = dut.burst_check(ops.size())) return *err;
    }
    return std::nullopt;
}

// ------------------------------------------------- TagSorter differential

/// Audit cleanliness + cycle-accounting closure for one TagSorter. Every
/// datapath cycle is recorded in exactly one of the two totals (combined
/// ops bill to the insert total), so their sum must equal the clock
/// cycles elapsed since construction.
inline std::optional<std::string> check_tag_sorter_integrity(
    const core::TagSorter& sorter, const hw::Simulation& sim, std::uint64_t t0) {
    const auto report = sorter.audit();
    if (!report.clean()) {
        std::ostringstream out;
        out << "audit found " << report.issues.size()
            << " issue(s): " << report.issues.front().detail;
        return out.str();
    }
    const std::uint64_t elapsed = sim.clock().now() - t0;
    const std::uint64_t accounted =
        sorter.stats().insert_cycles_total + sorter.stats().pop_cycles_total;
    if (accounted != elapsed) {
        std::ostringstream out;
        out << "cycle accounting leak: stats total " << accounted << " vs clock "
            << elapsed;
        return out.str();
    }
    return std::nullopt;
}

/// Differential-test one TagSorter configuration. `engine` selects the
/// node matcher (nullptr = the behavioural default).
inline std::optional<std::string> diff_tag_sorter(
    const OpSeq& ops, const core::TagSorter::Config& config,
    matcher::MatcherEngine* engine = nullptr, const DiffOptions& opt = {}) {
    hw::Simulation sim;
    auto sorter = engine ? std::make_unique<core::TagSorter>(config, sim, *engine)
                         : std::make_unique<core::TagSorter>(config, sim);
    const std::uint64_t t0 = sim.clock().now();
    ref::RefSorter ref = ref::RefSorter::mirror(*sorter);

    DutHooks dut;
    dut.insert = [&](std::uint64_t t, std::uint32_t p) { sorter->insert(t, p); };
    dut.pop = [&] { return sorter->pop_min(); };
    dut.combined = [&](std::uint64_t t, std::uint32_t p) {
        return sorter->insert_and_pop(t, p);
    };
    dut.peek = [&] { return sorter->peek_min(); };
    dut.size = [&] { return sorter->size(); };
    dut.burst_check = [&](std::size_t) {
        return check_tag_sorter_integrity(*sorter, sim, t0);
    };
    return run_ops(ops, ref, dut, opt);
}

// --------------------------------------------- FfsSorter differential

/// Structural burst check for the host-native backend. FfsSorter has no
/// modeled clock, so the cycle-closure check does not apply; instead the
/// audit cross-checks bitmap levels / duplicate chains / free list /
/// sector occupancy, and the boundary counters must balance the live
/// size (combined ops are occupancy-neutral).
inline std::optional<std::string> check_ffs_sorter_integrity(
    const core::FfsSorter& sorter) {
    const auto report = sorter.audit();
    if (!report.clean()) {
        std::ostringstream out;
        out << "ffs audit found " << report.issues.size()
            << " issue(s): " << report.issues.front().detail;
        return out.str();
    }
    const auto& s = sorter.stats();
    if (s.inserts < s.pops || s.inserts - s.pops != sorter.size()) {
        std::ostringstream out;
        out << "ffs op accounting drift: " << s.inserts << " inserts, " << s.pops
            << " pops, but size " << sorter.size();
        return out.str();
    }
    return std::nullopt;
}

/// Three-way differential for the host-native backend: RefSorter stays
/// the accept/reject arbiter while *both* TagSorter (the cycle model)
/// and FfsSorter execute every op — every result, exception decision,
/// head register, and occupancy must agree across all three, and the
/// burst check additionally demands the mirrored bookkeeping counters
/// (duplicate inserts, marker retirements, sector invalidations, head
/// undercuts) match the model exactly.
inline std::optional<std::string> diff_ffs_sorter(
    const OpSeq& ops, const core::TagSorter::Config& config,
    const DiffOptions& opt = {}) {
    hw::Simulation sim;
    core::TagSorter model(config, sim);
    core::FfsSorter ffs(config);
    const std::uint64_t t0 = sim.clock().now();
    ref::RefSorter ref = ref::RefSorter::mirror(model);

    // First model-vs-ffs divergence, reported through the post_op hook
    // (the lockstep hooks below cannot return errors directly).
    std::optional<std::string> cross;
    const auto note = [&](const std::string& what) {
        if (!cross) cross = "model/ffs lockstep diverged: " + what;
    };

    DutHooks dut;
    dut.insert = [&](std::uint64_t t, std::uint32_t p) {
        std::exception_ptr model_err;
        try {
            model.insert(t, p);
        } catch (...) {
            model_err = std::current_exception();
        }
        bool ffs_threw = false;
        try {
            ffs.insert(t, p);
        } catch (...) {
            ffs_threw = true;
            if (!model_err) throw;  // ffs rejected what the model accepted
        }
        if ((model_err != nullptr) != ffs_threw)
            note("insert(tag " + std::to_string(t) + ") exception parity");
        if (model_err) std::rethrow_exception(model_err);
    };
    dut.pop = [&]() -> std::optional<core::SortedTag> {
        const auto want = model.pop_min();
        const auto got = ffs.pop_min();
        if (want.has_value() != got.has_value() ||
            (want && (want->tag != got->tag ||
                      (opt.compare_payloads && want->payload != got->payload))))
            note("pop_min result");
        return got;
    };
    dut.combined = [&](std::uint64_t t, std::uint32_t p) {
        core::SortedTag want{};
        std::exception_ptr model_err;
        try {
            want = model.insert_and_pop(t, p);
        } catch (...) {
            model_err = std::current_exception();
        }
        core::SortedTag got{};
        bool ffs_threw = false;
        try {
            got = ffs.insert_and_pop(t, p);
        } catch (...) {
            ffs_threw = true;
            if (!model_err) throw;
        }
        if ((model_err != nullptr) != ffs_threw)
            note("insert_and_pop(tag " + std::to_string(t) +
                 ") exception parity");
        if (model_err) std::rethrow_exception(model_err);
        if (want.tag != got.tag ||
            (opt.compare_payloads && want.payload != got.payload))
            note("insert_and_pop result");
        return got;
    };
    dut.peek = [&]() -> std::optional<core::SortedTag> {
        const auto want = model.peek_min();
        const auto got = ffs.peek_min();
        if (want.has_value() != got.has_value() ||
            (want && (want->tag != got->tag ||
                      (opt.compare_payloads && want->payload != got->payload))))
            note("peek_min result");
        return got;
    };
    dut.size = [&] {
        if (model.size() != ffs.size()) note("occupancy");
        return ffs.size();
    };
    dut.post_op = [&](std::size_t) { return cross; };
    dut.burst_check = [&](std::size_t) -> std::optional<std::string> {
        if (auto err = check_tag_sorter_integrity(model, sim, t0)) return err;
        if (auto err = check_ffs_sorter_integrity(ffs)) return err;
        const auto& a = model.stats();
        const auto& b = ffs.stats();
        if (a.inserts != b.inserts || a.pops != b.pops ||
            a.combined_ops != b.combined_ops ||
            a.duplicate_inserts != b.duplicate_inserts ||
            a.marker_retirements != b.marker_retirements ||
            a.sector_invalidations != b.sector_invalidations ||
            a.head_undercuts != b.head_undercuts) {
            std::ostringstream out;
            out << "model/ffs bookkeeping diverged: duplicates " << a.duplicate_inserts
                << "/" << b.duplicate_inserts << ", retirements "
                << a.marker_retirements << "/" << b.marker_retirements
                << ", sector invalidations " << a.sector_invalidations << "/"
                << b.sector_invalidations << ", undercuts " << a.head_undercuts
                << "/" << b.head_undercuts;
            return out.str();
        }
        return std::nullopt;
    };
    return run_ops(ops, ref, dut, opt);
}

// --------------------------------------------- ShardedSorter differential

/// How the interpreter fabricates the flow key it passes to a sharded
/// insert. Only meaningful under BankSelect::kFlowHash.
enum class FlowKeyMode {
    /// flow_key = tag: equal tags hash to one bank, so per-bank FIFO is
    /// global FIFO.
    kByTag,
    /// flow_key = the op index: equal tags from different "flows" may
    /// land in different banks, exercising the bank-index tie-break of
    /// the head merge (which ShardedRef reproduces exactly).
    kBySeq,
};

/// Golden model of a ShardedSorter: one RefSorter per bank, each
/// enforcing the bank-local contract — the per-bank capacity, the
/// per-bank moving window (in global tag units: N x the bank span under
/// interleave, since local tags are compressed by N; the bank span under
/// flow hashing), and per-bank strict-minimum mode. Placement asks the
/// DUT's own selector (bank_for), so the model never drifts from the
/// flow-hash mixing function, and the head merge breaks cross-bank ties
/// on the lowest bank index exactly like the comparator sweep.
///
/// bank_for is occupancy-dependent (capacity spill) and a DUT op can
/// steal cycles to migrate entries, so the placement decided at
/// would_accept time is cached and reused by the subsequent insert —
/// re-asking bank_for after the DUT already mutated would race the
/// spill/routing state and can name a different bank than the DUT used.
/// Live resharding is mirrored move-by-move: apply_move() replays each
/// DUT MoveRecord, ensure_banks() tracks live bank adds.
class ShardedRef {
public:
    ShardedRef(const core::ShardedSorter& dut, FlowKeyMode mode,
               const std::size_t* op_index)
        : dut_(dut), mode_(mode), op_index_(op_index) {
        cfg_.capacity = dut.bank(0).capacity();
        cfg_.window_span = dut.window_span();
        cfg_.strict_min_discipline = dut.bank(0).config().strict_min_discipline;
        for (unsigned b = 0; b < dut.num_banks(); ++b) banks_.emplace_back(cfg_);
    }

    std::uint64_t flow_key(std::uint64_t tag) const {
        return mode_ == FlowKeyMode::kByTag ? tag
                                            : static_cast<std::uint64_t>(*op_index_);
    }

    bool would_accept(std::uint64_t tag) const {
        placed_ = dut_.bank_for(tag, flow_key(tag));
        return banks_[*placed_].would_accept(tag);
    }

    bool would_accept_combined(std::uint64_t tag) const {
        const int b = min_bank();
        if (b < 0) return false;
        const unsigned a = dut_.bank_for(tag, flow_key(tag));
        placed_ = a;
        // Fused same-bank op: no capacity precondition (slot reuse).
        // Cross-bank: a plain insert into bank `a`, capacity included.
        return a == static_cast<unsigned>(b) ? banks_[a].would_accept_combined(tag)
                                             : banks_[a].would_accept(tag);
    }

    void insert(std::uint64_t tag, std::uint32_t payload) {
        banks_[take_placement(tag)].insert(tag, payload);
    }

    std::optional<core::SortedTag> pop_min() {
        const int b = min_bank();
        if (b < 0) return std::nullopt;
        return banks_[static_cast<unsigned>(b)].pop_min();
    }

    core::SortedTag insert_and_pop(std::uint64_t tag, std::uint32_t payload) {
        const int b = min_bank();  // caller guarantees non-empty
        const unsigned a = take_placement(tag);
        if (a == static_cast<unsigned>(b))
            return banks_[a].insert_and_pop(tag, payload);
        banks_[a].insert(tag, payload);
        return *banks_[static_cast<unsigned>(b)].pop_min();
    }

    std::optional<core::SortedTag> peek_min() const {
        const int b = min_bank();
        if (b < 0) return std::nullopt;
        return banks_[static_cast<unsigned>(b)].peek_min();
    }

    std::optional<std::uint64_t> min_tag() const {
        const int b = min_bank();
        if (b < 0) return std::nullopt;
        return banks_[static_cast<unsigned>(b)].min_tag();
    }

    std::size_t size() const {
        std::size_t n = 0;
        for (const auto& b : banks_) n += b.size();
        return n;
    }
    bool empty() const { return size() == 0; }

    /// Mirror live bank growth: one fresh reference bank per DUT bank
    /// added by a reshard op (same per-bank contract as the originals).
    void ensure_banks() {
        while (banks_.size() < dut_.num_banks()) banks_.emplace_back(cfg_);
    }

    /// Replay one DUT migration move: the source bank's minimum leaves,
    /// re-entering the destination bank. Verifies the departing entry
    /// matches the DUT's record and that the destination accepts it —
    /// the reference keeps its *own* payload so duplicate FIFO order is
    /// preserved under kBySeq (where payload parity is off).
    std::optional<std::string> apply_move(const core::MoveRecord& mv,
                                          bool compare_payloads) {
        if (mv.from >= banks_.size() || mv.to >= banks_.size())
            return "migration move names unknown bank (from " +
                   std::to_string(mv.from) + ", to " + std::to_string(mv.to) +
                   ", reference holds " + std::to_string(banks_.size()) + ")";
        const auto got = banks_[mv.from].pop_min();
        if (!got)
            return "migration move out of bank " + std::to_string(mv.from) +
                   " which the reference holds empty";
        if (got->tag != mv.tag ||
            (compare_payloads && got->payload != mv.payload))
            return "migration move diverged: DUT moved {tag " +
                   std::to_string(mv.tag) + ", payload " +
                   std::to_string(mv.payload) + "}, reference head was {tag " +
                   std::to_string(got->tag) + ", payload " +
                   std::to_string(got->payload) + "}";
        try {
            banks_[mv.to].insert(mv.tag, got->payload);
        } catch (const std::exception& e) {
            return std::string("migration move violates the destination "
                               "bank's discipline: ") +
                   e.what();
        }
        return std::nullopt;
    }

private:
    /// Placement for the op being executed: the bank cached by the
    /// preceding would_accept/would_accept_combined (the DUT had the same
    /// state then), falling back to a live query.
    unsigned take_placement(std::uint64_t tag) {
        const unsigned b =
            placed_ ? *placed_ : dut_.bank_for(tag, flow_key(tag));
        placed_.reset();
        return b;
    }
    /// The comparator sweep: lowest tag wins, ties to the lowest index.
    int min_bank() const {
        int best = -1;
        std::uint64_t best_tag = 0;
        for (unsigned b = 0; b < banks_.size(); ++b) {
            const auto t = banks_[b].min_tag();
            if (!t) continue;
            if (best < 0 || *t < best_tag) {
                best_tag = *t;
                best = static_cast<int>(b);
            }
        }
        return best;
    }

    const core::ShardedSorter& dut_;
    FlowKeyMode mode_;
    const std::size_t* op_index_;
    ref::RefSorter::Config cfg_;
    std::vector<ref::RefSorter> banks_;
    mutable std::optional<unsigned> placed_;
};

/// Controller settings for the differential drivers: migration happens
/// only when an explicit reshard op asks for it (no autonomous
/// rebalancing), so configs without reshard ops replay bit-identically
/// to the pre-reshard harness. Reshard-enabled rows override this.
inline core::ReshardConfig differ_reshard_defaults() {
    core::ReshardConfig cfg;
    cfg.auto_rebalance = false;
    return cfg;
}

/// Differential-test one ShardedSorter configuration against the
/// per-bank golden model (exact window, capacity, and tie-break parity
/// for both bank-select policies). A ReshardController is always
/// attached: kAddBank/kRemoveBank/kPumpMigration ops drive it (they are
/// contract-legal no-ops under interleave, which refuses resharding),
/// and every resulting MoveRecord is replayed into the reference in DUT
/// order before the post-op parity check.
inline std::optional<std::string> diff_sharded_sorter(
    const OpSeq& ops, const core::ShardedSorter::Config& config,
    FlowKeyMode flow_mode = FlowKeyMode::kByTag, const DiffOptions& opt = {},
    const core::ReshardConfig& reshard_cfg = differ_reshard_defaults()) {
    hw::Simulation sim;
    core::ShardedSorter sorter(config, sim);
    core::ReshardController controller(sorter, reshard_cfg);
    const std::uint64_t t0 = sim.clock().now();
    std::size_t cur_op = 0;
    ShardedRef ref(sorter, flow_mode, &cur_op);
    const auto key = [&](std::uint64_t tag) { return ref.flow_key(tag); };

    std::vector<core::MoveRecord> pending;
    sorter.set_move_listener(
        [&pending](const core::MoveRecord& mv) { pending.push_back(mv); });

    DutHooks dut;
    dut.before_op = [&](std::size_t i) { cur_op = i; };
    dut.insert = [&](std::uint64_t t, std::uint32_t p) { sorter.insert(t, p, key(t)); };
    dut.pop = [&] { return sorter.pop_min(); };
    dut.combined = [&](std::uint64_t t, std::uint32_t p) {
        return sorter.insert_and_pop(t, p, key(t));
    };
    dut.peek = [&] { return sorter.peek_min(); };
    dut.size = [&] { return sorter.size(); };
    dut.reshard = [&](const Op& op) -> std::optional<std::string> {
        switch (op.kind) {
            case OpKind::kAddBank:
                controller.add_bank();  // refused under interleave: no-op
                break;
            case OpKind::kRemoveBank: {
                const auto mag = static_cast<std::uint64_t>(
                    op.delta < 0 ? -op.delta : op.delta);
                controller.remove_bank(
                    static_cast<unsigned>(mag % sorter.num_banks()));
                break;
            }
            case OpKind::kPumpMigration: {
                const auto mag = static_cast<std::uint64_t>(
                    op.delta < 0 ? -op.delta : op.delta);
                controller.pump(
                    std::max<std::size_t>(1, static_cast<std::size_t>(mag)));
                break;
            }
            default:
                break;
        }
        ref.ensure_banks();
        return std::nullopt;
    };
    dut.post_op = [&](std::size_t) -> std::optional<std::string> {
        ref.ensure_banks();
        for (const auto& mv : pending) {
            if (auto err = ref.apply_move(mv, opt.compare_payloads)) return err;
        }
        pending.clear();
        return std::nullopt;
    };
    dut.burst_check = [&](std::size_t) -> std::optional<std::string> {
        for (unsigned b = 0; b < sorter.num_banks(); ++b) {
            const auto report = sorter.bank(b).audit();
            if (!report.clean())
                return "bank " + std::to_string(b) + " audit found " +
                       std::to_string(report.issues.size()) +
                       " issue(s): " + report.issues.front().detail;
        }
        const std::uint64_t elapsed = sim.clock().now() - t0;
        const std::uint64_t accounted =
            sorter.stats().sequential_cycles + sorter.stats().migration_cycles;
        if (accounted != elapsed)
            return "sharded cycle accounting leak: sequential_cycles " +
                   std::to_string(sorter.stats().sequential_cycles) +
                   " + migration_cycles " +
                   std::to_string(sorter.stats().migration_cycles) + " vs clock " +
                   std::to_string(elapsed);
        return std::nullopt;
    };
    return run_ops(ops, ref, dut, opt);
}

// ------------------------------------------- baseline-queue differential

/// Golden model for the Table I baseline queues behind
/// baselines::TagQueue: an ordered multimap, FIFO among equivalent keys.
/// Two optional disciplines mirror how the configs drive the bounded
/// structures:
///
///   * universe > 0 — tags wrap (tag % universe) before use. The DUT
///     hooks apply the same wrap, so both sides see the same tag and
///     every op is accepted; wrapping folds the generators' forward
///     marches back behind the current minimum, which is exactly the
///     re-anchoring traffic the calendar/vEB serving paths find hard.
///   * bound > 0 — tags >= bound are rejected (would_accept false); the
///     interpreter then demands the DUT throw (WFQS_REQUIRE's
///     invalid_argument on the bounded universes) and leave state intact.
///
/// bin_width > 1 turns the model into the *exact* oracle for the binning
/// queue: the key becomes the bin index, so pop/peek serve the FIFO head
/// of the lowest non-empty bin — deterministic, even though the result
/// is not the numeric minimum (the §II-B inaccuracy, modelled exactly).
class RefQueue {
public:
    struct Config {
        std::uint64_t universe = 0;   ///< wrap modulus (0 = unbounded tags)
        std::uint64_t bound = 0;      ///< reject tags >= bound (0 = accept all)
        std::uint64_t bin_width = 1;  ///< >1: binning service order
    };

    // No default argument: a nested aggregate's member initializers are
    // only complete at the enclosing class's closing brace.
    explicit RefQueue(const Config& cfg) : cfg_(cfg) {}

    std::uint64_t wrap(std::uint64_t tag) const {
        return cfg_.universe ? tag % cfg_.universe : tag;
    }

    bool would_accept(std::uint64_t tag) const {
        return cfg_.bound == 0 || wrap(tag) < cfg_.bound;
    }
    bool would_accept_combined(std::uint64_t tag) const { return would_accept(tag); }

    void insert(std::uint64_t tag, std::uint32_t payload) {
        const std::uint64_t t = wrap(tag);
        entries_.emplace(t / cfg_.bin_width, core::SortedTag{t, payload});
    }

    std::optional<core::SortedTag> pop_min() {
        if (entries_.empty()) return std::nullopt;
        const auto it = entries_.begin();
        const core::SortedTag e = it->second;
        entries_.erase(it);
        return e;
    }

    /// Baseline "combined" = insert then pop: the queues have no fused
    /// §III-C op, and the DUT hook issues the same two calls.
    core::SortedTag insert_and_pop(std::uint64_t tag, std::uint32_t payload) {
        insert(tag, payload);
        return *pop_min();
    }

    std::optional<core::SortedTag> peek_min() const {
        if (entries_.empty()) return std::nullopt;
        return entries_.begin()->second;
    }

    /// Delta base for the interpreter: the tag the next pop would serve
    /// (under binning this is the head of the lowest bin, not the numeric
    /// minimum — any stable base keeps delta sequences meaningful).
    std::optional<std::uint64_t> min_tag() const {
        const auto head = peek_min();
        if (!head) return std::nullopt;
        return head->tag;
    }

    std::size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }

private:
    Config cfg_;
    std::multimap<std::uint64_t, core::SortedTag> entries_;
};

/// One baseline-queue configuration under differential test.
struct BaselineDiffConfig {
    std::string name;
    baselines::QueueKind kind = baselines::QueueKind::Heap;
    unsigned range_bits = 12;     ///< QueueParams universe for bounded kinds
    std::size_t capacity = 4096;  ///< QueueParams capacity
    std::uint64_t universe = 0;   ///< wrap tags (both sides) into [0, universe)
    std::uint64_t bound = 0;      ///< rejection-parity limit (0 = accept all)
    std::uint64_t span = 4096;    ///< generator reach for this config
};

/// Differential-test one baseline queue against RefQueue. Payload
/// comparison stays on: every baseline (including binning's bin FIFO and
/// the calendar's in-bucket ordering) promises global FIFO among the
/// tags its service discipline treats as equivalent.
inline std::optional<std::string> diff_baseline_queue(
    const OpSeq& ops, const BaselineDiffConfig& cfg, const DiffOptions& opt = {}) {
    auto queue = baselines::make_tag_queue(cfg.kind, {cfg.range_bits, cfg.capacity});
    RefQueue::Config rc;
    rc.universe = cfg.universe;
    rc.bound = cfg.bound;
    if (!queue->exact())
        rc.bin_width = (std::uint64_t{1} << cfg.range_bits) / 64;  // factory's 64 bins
    RefQueue ref(rc);

    const auto wrap = [&](std::uint64_t t) {
        return cfg.universe ? t % cfg.universe : t;
    };
    const auto lift = [](const std::optional<baselines::QueueEntry>& e)
        -> std::optional<core::SortedTag> {
        if (!e) return std::nullopt;
        return core::SortedTag{e->tag, e->payload};
    };

    DutHooks dut;
    dut.insert = [&](std::uint64_t t, std::uint32_t p) { queue->insert(wrap(t), p); };
    dut.pop = [&] { return lift(queue->pop_min()); };
    dut.combined = [&](std::uint64_t t, std::uint32_t p) {
        queue->insert(wrap(t), p);
        return *lift(queue->pop_min());
    };
    dut.peek = [&] { return lift(queue->peek_min()); };
    dut.size = [&] { return queue->size(); };
    dut.burst_check = [&](std::size_t) -> std::optional<std::string> {
        // Every queue rejects (or reports empty) *before* opening its
        // OpScope, so the boundary counters must balance the live size.
        const auto& s = queue->stats();
        if (s.inserts < s.pops || s.inserts - s.pops != queue->size())
            return "op accounting drift: " + std::to_string(s.inserts) +
                   " inserts, " + std::to_string(s.pops) + " pops, but size " +
                   std::to_string(queue->size());
        return std::nullopt;
    };
    return run_ops(ops, ref, dut, opt);
}

// ------------------------------------------------- matcher differentials

/// Compare one engine against ref_match on one vector.
inline std::optional<std::string> check_match(matcher::MatcherEngine& engine,
                                              std::uint64_t word, unsigned target,
                                              unsigned width) {
    const matcher::MatchResult want = ref::ref_match(word, target, width);
    const matcher::MatchResult got = engine.match(word, target, width);
    if (got == want) return std::nullopt;
    std::ostringstream out;
    out << engine.name() << " diverged at width " << width << ", word 0x" << std::hex
        << word << std::dec << ", target " << target << ": reference {" << want.primary
        << "," << want.backup << "}, got {" << got.primary << "," << got.backup << "}";
    return out.str();
}

/// Word-level differential over one engine and one width: exhaustive for
/// small widths, structured edge vectors + seeded random words otherwise.
/// `block` is the engine's internal grouping (0 = none) — edge vectors
/// place bits around its boundaries.
inline std::optional<std::string> diff_matcher_width(matcher::MatcherEngine& engine,
                                                     unsigned width, unsigned block,
                                                     std::size_t random_cases,
                                                     std::uint64_t seed) {
    const std::uint64_t mask =
        width >= 64 ? ~0ULL : ((1ULL << width) - 1);
    if (width <= 10) {
        // Every word x every target.
        for (std::uint64_t word = 0; word <= mask; ++word)
            for (unsigned target = 0; target < width; ++target)
                if (auto err = check_match(engine, word, target, width)) return err;
        return std::nullopt;
    }
    // Structured edges: the all-zero word (no match anywhere), the full
    // word, and single/paired bits straddling block boundaries.
    std::vector<std::uint64_t> words = {0, mask, 1, 1ULL << (width - 1)};
    std::vector<unsigned> positions = {0, 1, width / 2, width - 2, width - 1};
    if (block > 1) {
        for (unsigned edge = block; edge < width; edge += block) {
            positions.push_back(edge - 1);
            positions.push_back(edge);
            words.push_back(1ULL << (edge - 1));
            words.push_back(1ULL << edge);
            words.push_back((1ULL << (edge - 1)) | (1ULL << edge));
        }
    }
    for (const std::uint64_t word : words)
        for (const unsigned target : positions)
            if (target < width)
                if (auto err = check_match(engine, word & mask, target, width))
                    return err;
    Rng rng(seed);
    for (std::size_t i = 0; i < random_cases; ++i) {
        const std::uint64_t word = rng.next_u64() & mask;
        const unsigned target = static_cast<unsigned>(rng.next_below(width));
        if (auto err = check_match(engine, word, target, width)) return err;
    }
    return std::nullopt;
}

// ---------------------------------------------------- standard matrices
//
// The configuration matrices every conformance consumer sweeps (the
// tier-1 suite, the corpus replay, and the wfqs_fuzz soak), so a corpus
// regression is automatically replayed against every geometry and
// sharding the repo supports.

struct NamedTagConfig {
    std::string name;
    core::TagSorter::Config config;
};

inline std::vector<NamedTagConfig> standard_tag_configs() {
    std::vector<NamedTagConfig> v;
    core::TagSorter::Config paper;  // the silicon instance: 3 levels x 4 bits
    v.push_back({"paper-3x4", paper});

    core::TagSorter::Config strict = paper;
    strict.strict_min_discipline = true;
    v.push_back({"paper-strict", strict});

    core::TagSorter::Config tiny = paper;  // overflow-parity workout
    tiny.capacity = 8;
    v.push_back({"paper-capacity8", tiny});

    core::TagSorter::Config binary;  // branching factor 2, Table I "tree"
    binary.geometry = tree::TreeGeometry::binary(12);
    v.push_back({"binary-12x1", binary});

    core::TagSorter::Config single;  // single-level tree, one 16-bit node
    single.geometry = {1, 4};
    v.push_back({"single-level-1x4", single});

    core::TagSorter::Config wide;  // branching factor 32 (15-bit variant)
    wide.geometry = tree::TreeGeometry::paper_15bit();
    v.push_back({"wide-3x5", wide});

    core::TagSorter::Config deep;  // 2-bit literals, 5 levels
    deep.geometry = {5, 2};
    v.push_back({"deep-5x2", deep});

    // --- wide tag spaces (beyond the paper's 12-15 bits) -----------------

    core::TagSorter::Config wide20;  // 20-bit, heterogeneous {5,4,...}
    wide20.geometry = tree::TreeGeometry::heterogeneous({5, 4, 5, 6});
    v.push_back({"wide-20het", wide20});

    core::TagSorter::Config wide24;  // 24-bit, narrow root sectors
    wide24.geometry = tree::TreeGeometry::heterogeneous({2, 4, 6, 6, 6});
    v.push_back({"wide-24het", wide24});

    core::TagSorter::Config wide32;  // full 32-bit space, tiered table
    wide32.geometry = tree::TreeGeometry::wide32();
    v.push_back({"wide-32", wide32});

    // Paper geometry with the tiered table forced on and a tiny hot
    // cache: hammers the miss/install/invalidate paths at a size where
    // every op still cross-checks against the flat-table reference row.
    core::TagSorter::Config tiered12;
    tiered12.tiered_table = true;
    tiered12.table_hot_bits = 4;
    tiered12.table_miss_penalty_cycles = 5;
    v.push_back({"tiered-12", tiered12});
    return v;
}

struct NamedShardedConfig {
    std::string name;
    core::ShardedSorter::Config config;
    FlowKeyMode flow_mode = FlowKeyMode::kByTag;
    /// Controller settings for this row. The default keeps migration
    /// purely op-driven; reshard rows turn autonomous rebalancing on.
    core::ReshardConfig reshard = differ_reshard_defaults();
};

inline std::vector<NamedShardedConfig> standard_sharded_configs() {
    using Select = core::ShardedSorter::BankSelect;
    std::vector<NamedShardedConfig> v;
    for (const unsigned n : {1u, 2u, 4u, 8u}) {
        core::ShardedSorter::Config cfg;
        cfg.num_banks = n;
        cfg.select = Select::kTagInterleave;
        v.push_back({"interleave-n" + std::to_string(n), cfg, FlowKeyMode::kByTag});
        cfg.select = Select::kFlowHash;
        v.push_back({"flowhash-n" + std::to_string(n), cfg, FlowKeyMode::kByTag});
    }
    // Tag-independent flow keys: duplicate order across banks is bank-index
    // order, so this row runs with payload comparison off (see FlowKeyMode).
    core::ShardedSorter::Config byseq;
    byseq.num_banks = 4;
    byseq.select = Select::kFlowHash;
    v.push_back({"flowhash-n4-byseq", byseq, FlowKeyMode::kBySeq});

    // Live-reshard row: autonomous rebalancing with hair-trigger
    // thresholds, so migration races datapath ops even before a profile
    // adds explicit a/r/m churn. Corpus artifacts with reshard ops get
    // their full workout here; on the rows above those ops are
    // contract-legal no-ops or interleave refusals.
    core::ShardedSorter::Config live;
    live.num_banks = 4;
    live.select = Select::kFlowHash;
    NamedShardedConfig reshard_row{"flowhash-n4-reshard", live,
                                   FlowKeyMode::kByTag};
    reshard_row.reshard.auto_rebalance = true;
    reshard_row.reshard.occupancy_skew = 2.0;
    reshard_row.reshard.min_occupancy = 16;
    reshard_row.reshard.check_interval = 32;
    v.push_back(std::move(reshard_row));
    return v;
}

/// Every baseline queue family under the harness. The wrapped rows fold
/// tags into a small universe so forward marches land behind the current
/// minimum over and over (re-anchoring and serving-path stress); the
/// bound rows leave tags unwrapped so the bounded structures' rejection
/// contract is exercised through the exception-parity path.
inline std::vector<BaselineDiffConfig> standard_baseline_configs() {
    using Kind = baselines::QueueKind;
    std::vector<BaselineDiffConfig> v;

    const auto plain = [&](const char* name, Kind kind) {
        BaselineDiffConfig c;
        c.name = name;
        c.kind = kind;
        v.push_back(c);
    };
    // Unbounded software structures: raw tags, monotone-ish marches.
    plain("heap", Kind::Heap);
    plain("sorted-list", Kind::SortedList);
    plain("skiplist", Kind::Skiplist);
    plain("calendar", Kind::Calendar);

    const auto wrapped = [&](const char* name, Kind kind) {
        BaselineDiffConfig c;
        c.name = name;
        c.kind = kind;
        c.universe = 4096;  // = 2^range_bits: every wrapped tag is legal
        v.push_back(c);
    };
    // The calendar again, folded: inserts keep landing before day_start_.
    wrapped("calendar-wrapped", Kind::Calendar);
    wrapped("binning-wrapped", Kind::Binning);
    wrapped("cam-wrapped", Kind::BinaryCam);
    wrapped("tcam-wrapped", Kind::Tcam);
    wrapped("tcq-wrapped", Kind::Tcq);
    wrapped("veb-wrapped", Kind::Veb);

    const auto bounded = [&](const char* name, Kind kind) {
        BaselineDiffConfig c;
        c.name = name;
        c.kind = kind;
        c.bound = 4096;  // tags past the universe must throw, in parity
        v.push_back(c);
    };
    bounded("binning-bound", Kind::Binning);
    bounded("cam-bound", Kind::BinaryCam);
    bounded("tcq-bound", Kind::Tcq);
    bounded("veb-bound", Kind::Veb);
    return v;
}

// ------------------------------------------- rank-policy differential
//
// The programmable-scheduling layer (src/sched_prog) is diffed at the
// *scheduler* surface: an op sequence becomes a packet arrival/service
// stream (kInsert = enqueue, kPop = dequeue, kCombined = both; reshard
// ops are skipped), and the DUT — PifoScheduler over any TagQueue
// backend, SpPifoScheduler, or RifoScheduler — must serve the exact
// packet sequence its src/ref mirror serves. Rank functions are
// deterministic over the (packet, now) stream, so DUT and mirror hold
// *independent* instances of the same policy and never share state.
//
// The op's delta picks the flow and size deterministically, so the
// existing generator profiles, the shrinker, and the `.ops` corpus
// format all drive policy schedulers unchanged. Simulated time advances
// a fixed step per op: backlogs build while virtual clocks move, the
// regime where eligibility gating and admission actually bite.
// A pop serves a packet whatever its size, so the DUT drains several
// times faster than the 1 Gb/s GPS reference: the GPS backlog, and the
// spread of per-flow finish tags with it, grows with the op count, and
// long streams outgrow the 16-bit sorter windows — the regime
// PifoScheduler's window refusal (mirrored by RefRankOracle) is for.

struct PolicyDiffConfig {
    std::string name;
    enum class Dut { kPifo, kSpPifo, kRifo } dut = Dut::kPifo;
    sched_prog::RankPolicy policy = sched_prog::RankPolicy::kWfq;
    // PIFO backend (ignored by the approximations).
    baselines::QueueKind queue = baselines::QueueKind::MultibitTree;
    unsigned range_bits = 20;
    std::size_t capacity = std::size_t{1} << 16;
    baselines::SorterBackend backend = baselines::SorterBackend::kModel;
    unsigned sp_queues = 8;          ///< SP-PIFO queue count
    std::size_t rifo_capacity = 48;  ///< small: admission must actually refuse
};

/// Rank settings every policy differ row shares. Granularity -6 makes a
/// 1500B weight-1 packet ~187 WFQ/WF2Q+ tag units, against 16-bit sorter
/// windows of 15/16 * 2^16 = 61440 (multibit) and 2^15 (binary).
inline sched_prog::RankConfig policy_diff_rank_config() {
    sched_prog::RankConfig rc;
    rc.link_rate_bps = 1'000'000'000;
    rc.tag_granularity_bits = -6;
    return rc;
}

/// Fixed flow population for the op interpreter: op.delta selects one of
/// four flows with weights 1/2/4/8 and a size in [64, 1467] bytes, both
/// stable under shrinking (|delta| only shrinks toward zero).
inline constexpr std::uint32_t kPolicyDiffWeights[4] = {1, 2, 4, 8};
inline net::Packet policy_diff_packet(const Op& op, std::uint64_t id,
                                      net::TimeNs now) {
    const std::uint64_t mag =
        static_cast<std::uint64_t>(op.delta < 0 ? -op.delta : op.delta);
    net::Packet p;
    p.id = id;
    p.flow = static_cast<net::FlowId>(mag % 4);
    p.size_bytes = 64 + static_cast<std::uint32_t>(mag % 24) * 61;
    p.arrival_ns = now;
    return p;
}

/// Live-rank window of a PIFO row's sorter (Fig. 6): the tag range less
/// the root sector reserved ahead of the head. The factory builds 4-bit
/// levels for the multi-bit tree and 1-bit levels for the binary tree;
/// the other queue kinds have no window (0).
inline std::uint64_t policy_row_window(const PolicyDiffConfig& cfg) {
    unsigned level_bits = 0;
    if (cfg.queue == baselines::QueueKind::MultibitTree) level_bits = 4;
    if (cfg.queue == baselines::QueueKind::BinaryTree) level_bits = 1;
    if (level_bits == 0) return 0;
    const unsigned bits = (cfg.range_bits + level_bits - 1) / level_bits * level_bits;
    return (std::uint64_t{1} << bits) - (std::uint64_t{1} << (bits - level_bits));
}

/// Run one op sequence against a policy scheduler and its rank oracle in
/// lockstep. Checks enqueue accept/reject parity (RIFO admission, sorter
/// window refusals), the *identity* of every served packet, and
/// occupancy after every op.
inline std::optional<std::string> diff_policy_scheduler(
    const OpSeq& ops, const PolicyDiffConfig& cfg) {
    const sched_prog::RankConfig rc = policy_diff_rank_config();
    const auto fail = [](std::size_t i, const std::string& what) {
        return "op " + std::to_string(i) + ": " + what;
    };
    const auto show = [](const net::Packet& p) {
        return "{id " + std::to_string(p.id) + ", flow " + std::to_string(p.flow) +
               ", " + std::to_string(p.size_bytes) + "B}";
    };

    // Build the DUT and its mirror; expose both behind uniform lambdas.
    std::unique_ptr<scheduler::Scheduler> dut;
    std::function<net::FlowId(std::uint32_t)> ref_add_flow;
    std::function<bool(const net::Packet&, net::TimeNs)> ref_enqueue;
    std::function<std::optional<net::Packet>(net::TimeNs)> ref_dequeue;
    std::function<std::size_t()> ref_size;

    std::optional<ref::RefRankOracle> pifo_ref;
    std::optional<ref::RefSpPifo> sp_ref;
    std::optional<ref::RefRifo> rifo_ref;
    switch (cfg.dut) {
        case PolicyDiffConfig::Dut::kPifo: {
            sched_prog::PifoScheduler::Config pc;
            pc.policy = cfg.policy;
            pc.rank = rc;
            dut = std::make_unique<sched_prog::PifoScheduler>(pc, [&cfg] {
                baselines::QueueParams qp;
                qp.range_bits = cfg.range_bits;
                qp.capacity = cfg.capacity;
                qp.backend = cfg.backend;
                return baselines::make_tag_queue(cfg.queue, qp);
            });
            pifo_ref.emplace(cfg.policy, rc, policy_row_window(cfg));
            ref_add_flow = [&](std::uint32_t w) { return pifo_ref->add_flow(w); };
            ref_enqueue = [&](const net::Packet& p, net::TimeNs t) {
                return pifo_ref->enqueue(p, t);
            };
            ref_dequeue = [&](net::TimeNs t) { return pifo_ref->dequeue(t); };
            ref_size = [&] { return pifo_ref->size(); };
            break;
        }
        case PolicyDiffConfig::Dut::kSpPifo: {
            sched_prog::SpPifoScheduler::Config sc;
            sc.policy = cfg.policy;
            sc.rank = rc;
            sc.num_queues = cfg.sp_queues;
            dut = std::make_unique<sched_prog::SpPifoScheduler>(sc);
            sp_ref.emplace(cfg.policy, cfg.sp_queues, rc);
            ref_add_flow = [&](std::uint32_t w) { return sp_ref->add_flow(w); };
            ref_enqueue = [&](const net::Packet& p, net::TimeNs t) {
                sp_ref->enqueue(p, t);
                return true;
            };
            ref_dequeue = [&](net::TimeNs t) { return sp_ref->dequeue(t); };
            ref_size = [&] { return sp_ref->size(); };
            break;
        }
        case PolicyDiffConfig::Dut::kRifo: {
            sched_prog::RifoScheduler::Config fc;
            fc.policy = cfg.policy;
            fc.rank = rc;
            fc.fifo_capacity = cfg.rifo_capacity;
            dut = std::make_unique<sched_prog::RifoScheduler>(fc);
            rifo_ref.emplace(cfg.policy, cfg.rifo_capacity, rc);
            ref_add_flow = [&](std::uint32_t w) { return rifo_ref->add_flow(w); };
            ref_enqueue = [&](const net::Packet& p, net::TimeNs t) {
                return rifo_ref->enqueue(p, t);
            };
            ref_dequeue = [&](net::TimeNs t) { return rifo_ref->dequeue(t); };
            ref_size = [&] { return rifo_ref->size(); };
            break;
        }
    }

    for (const std::uint32_t w : kPolicyDiffWeights) {
        const net::FlowId a = dut->add_flow(w);
        const net::FlowId b = ref_add_flow(w);
        if (a != b)
            return std::string("flow registration diverged: DUT id ") +
                   std::to_string(a) + ", reference id " + std::to_string(b);
    }

    // ~70% of ops enqueue a ~765B packet: ~5x the 1 Gb/s link's rate.
    constexpr net::TimeNs kStepNs = 800;
    net::TimeNs now = 0;
    std::uint64_t next_id = 1;

    const auto do_enqueue = [&](const Op& op,
                                std::size_t i) -> std::optional<std::string> {
        const net::Packet pkt = policy_diff_packet(op, next_id++, now);
        const bool dut_ok = dut->enqueue(pkt, now);
        const bool ref_ok = ref_enqueue(pkt, now);
        if (dut_ok != ref_ok)
            return fail(i, "admission diverged on " + show(pkt) + ": DUT " +
                               (dut_ok ? "accepted" : "dropped") +
                               ", reference " + (ref_ok ? "accepted" : "dropped"));
        return std::nullopt;
    };
    const auto do_dequeue = [&](std::size_t i) -> std::optional<std::string> {
        const auto got = dut->dequeue(now);
        const auto want = ref_dequeue(now);
        if (got.has_value() != want.has_value())
            return fail(i, std::string("dequeue emptiness diverged: reference ") +
                               (want ? "served a packet" : "was empty") +
                               ", DUT " + (got ? "served a packet" : "was empty"));
        if (want && got->id != want->id)
            return fail(i, "service order diverged: reference served " +
                               show(*want) + ", DUT served " + show(*got));
        return std::nullopt;
    };

    for (std::size_t i = 0; i < ops.size(); ++i) {
        const Op& op = ops[i];
        now += kStepNs;
        switch (op.kind) {
            case OpKind::kInsert:
                if (auto err = do_enqueue(op, i)) return err;
                break;
            case OpKind::kPop:
                if (auto err = do_dequeue(i)) return err;
                break;
            case OpKind::kCombined:
                if (auto err = do_enqueue(op, i)) return err;
                if (auto err = do_dequeue(i)) return err;
                break;
            case OpKind::kAddBank:
            case OpKind::kRemoveBank:
            case OpKind::kPumpMigration:
                break;  // no reshard surface on schedulers: skip
        }
        if (dut->queued_packets() != ref_size())
            return fail(i, "occupancy diverged: reference " +
                               std::to_string(ref_size()) + ", DUT " +
                               std::to_string(dut->queued_packets()));
    }
    // Drain: every queued packet must still come out in oracle order.
    std::size_t drains = ref_size();
    for (std::size_t i = 0; i < drains; ++i) {
        now += kStepNs;
        if (auto err = do_dequeue(ops.size() + i)) return err;
    }
    return std::nullopt;
}

/// Generator profiles for the policy differ: the standard mixes with the
/// DUT backlog capped at 96 packets (see the harness comment above for
/// why that does not cap the rank span).
inline std::vector<GenProfile> policy_profiles() {
    std::vector<GenProfile> v = all_profiles(/*span=*/4096);
    for (GenProfile& p : v) {
        p.max_backlog = 96;
        p.min_backlog = 2;
        p.reshard_prob = 0.0;  // schedulers have no reshard surface
    }
    return v;
}

/// The policy conformance matrix: every exact policy across sorter
/// geometries and both backends, plus the approximations (which carry a
/// mirror of their own, not the exact-PIFO oracle).
inline std::vector<PolicyDiffConfig> standard_policy_configs() {
    using Dut = PolicyDiffConfig::Dut;
    using Policy = sched_prog::RankPolicy;
    using Kind = baselines::QueueKind;
    using Backend = baselines::SorterBackend;
    struct Geometry {
        const char* name;
        Kind kind;
        unsigned range_bits;
    };
    static const Geometry kGeometries[] = {
        {"multibit20", Kind::MultibitTree, 20},
        {"multibit16", Kind::MultibitTree, 16},
        {"multibit24", Kind::MultibitTree, 24},
        {"binary16", Kind::BinaryTree, 16},
    };
    std::vector<PolicyDiffConfig> v;
    for (const Policy policy : sched_prog::all_rank_policies()) {
        for (const Geometry& g : kGeometries) {
            for (const Backend backend :
                 {Backend::kModel, Backend::kFfs}) {
                PolicyDiffConfig c;
                c.name = "pifo-" + sched_prog::rank_policy_name(policy) + "-" +
                         g.name + "-" + baselines::backend_name(backend);
                c.dut = Dut::kPifo;
                c.policy = policy;
                c.queue = g.kind;
                c.range_bits = g.range_bits;
                c.backend = backend;
                v.push_back(std::move(c));
            }
        }
    }
    // Approximations: single-stage policies only (WF2Q+ needs the exact
    // two-sorter arrangement), across queue counts / capacities.
    // SCFQ and FBFQ ride along to exercise the served-rank hook.
    for (const unsigned q : {2u, 8u}) {
        for (const Policy policy : {Policy::kWfq, Policy::kSrpt, Policy::kScfq}) {
            PolicyDiffConfig c;
            c.name = "sp-pifo-" + sched_prog::rank_policy_name(policy) + "-" +
                     std::to_string(q) + "q";
            c.dut = Dut::kSpPifo;
            c.policy = policy;
            c.sp_queues = q;
            v.push_back(std::move(c));
        }
    }
    for (const std::size_t cap : {std::size_t{16}, std::size_t{48}}) {
        for (const Policy policy : {Policy::kWfq, Policy::kLstf, Policy::kFbfq}) {
            PolicyDiffConfig c;
            c.name = "rifo-" + sched_prog::rank_policy_name(policy) + "-" +
                     std::to_string(cap);
            c.dut = Dut::kRifo;
            c.policy = policy;
            c.rifo_capacity = cap;
            v.push_back(std::move(c));
        }
    }
    return v;
}

// ---------------------------------------------- scheduler vs GPS fluid

struct SchedulerDiffConfig {
    baselines::QueueKind queue = baselines::QueueKind::Heap;
    std::uint64_t link_rate_bps = 100'000'000;
    /// Positive = fractional virtual-time bits kept (tight bound); the
    /// benches' -4 coarsening needs quantization slack.
    int tag_granularity_bits = 8;
    unsigned range_bits = 28;      ///< tag universe for the sorter queues
    std::size_t queue_capacity = 8192;
    double duration_s = 0.05;
    std::uint64_t seed = 1;
    double slack_s = 0.0;          ///< extra allowance beyond Lmax/r
};

/// Deterministic randomized flow mix: 3–6 flows, CBR/Poisson sources,
/// aggregate offered load ~65% of the link.
inline std::vector<net::FlowSpec> make_diff_flows(const SchedulerDiffConfig& cfg,
                                                  std::vector<double>& weights_out) {
    Rng rng(cfg.seed * 0x9E3779B97F4A7C15ULL + 17);
    const std::size_t n = 3 + rng.next_below(4);
    const net::TimeNs end_ns =
        static_cast<net::TimeNs>(cfg.duration_s * 1e9);
    const double budget_bps = 0.65 * static_cast<double>(cfg.link_rate_bps);
    std::vector<net::FlowSpec> flows;
    weights_out.clear();
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t weight = 1 + static_cast<std::uint32_t>(rng.next_below(9));
        const double share = budget_bps / static_cast<double>(n);
        net::FlowSpec spec;
        spec.weight = weight;
        if (rng.next_bool(0.5)) {
            const std::uint32_t bytes =
                64 + static_cast<std::uint32_t>(rng.next_below(1200));
            spec.source = std::make_unique<net::CbrSource>(
                static_cast<std::uint64_t>(share), bytes, net::TimeNs{0}, end_ns);
        } else {
            const std::uint32_t min_b = 64, max_b = 1000;
            const double mean_bits = 8.0 * (min_b + max_b) / 2.0;
            spec.source = std::make_unique<net::PoissonSource>(
                share / mean_bits, min_b, max_b, end_ns, cfg.seed + 31 * i);
        }
        flows.push_back(std::move(spec));
        weights_out.push_back(static_cast<double>(weight));
    }
    return flows;
}

/// Run a full scheduler simulation — PifoScheduler with the WFQ or
/// WF2Q+ rank policy over `cfg.queue` — and check every served packet
/// against the Parekh–Gallager departure bound D_p <= F_gps + Lmax/r
/// (+ slack).
inline std::optional<std::string> diff_pifo_vs_gps(
    sched_prog::RankPolicy policy, const SchedulerDiffConfig& cfg) {
    sched_prog::PifoScheduler::Config pc;
    pc.policy = policy;
    pc.rank.link_rate_bps = cfg.link_rate_bps;
    pc.rank.tag_granularity_bits = cfg.tag_granularity_bits;
    baselines::QueueParams params;
    params.range_bits = cfg.range_bits;
    params.capacity = cfg.queue_capacity;
    sched_prog::PifoScheduler sched(pc, [&] {
        return baselines::make_tag_queue(cfg.queue, params);
    });

    std::vector<double> weights;
    auto flows = make_diff_flows(cfg, weights);
    net::SimDriver driver(cfg.link_rate_bps);
    const net::SimResult result = driver.run(sched, flows);
    if (result.dropped_packets != 0)
        return "workload dropped " + std::to_string(result.dropped_packets) +
               " packet(s); the departure bound only covers served packets "
               "— enlarge the buffer or lower the load";
    if (result.records.empty()) return "workload produced no packets";

    ref::RefGpsScheduler gps(cfg.link_rate_bps, weights);
    const auto violations = gps.check_departure_bound(result, cfg.slack_s);
    if (!violations.empty())
        return sched.name() + " broke the GPS departure bound: " +
               ref::RefGpsScheduler::describe(violations);
    return std::nullopt;
}

}  // namespace wfqs::proptest
