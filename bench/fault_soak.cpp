// Chaos soak for the fault/ECC/self-healing layer (DESIGN.md "Fault
// model and recovery"): drive the cycle-accurate sorter for millions of
// operations while a seeded FaultInjector flips stored bits, and
// cross-check every pop against the shared ref::RefSorter golden model
// (the same oracle the conformance harness uses).
//
//     fault_soak [--ops N] [--rate P] [--stuck N] [--ecc none|parity|secded]
//                [--flight PATH] [--seed N] [--json PATH] [--timeseries]
//                [--reshard] [--banks N] [--live PATH]
//
//   --ops    verified operations to complete        (default 1,000,000)
//   --rate   bit-flip probability per SRAM access   (default 1e-6)
//   --stuck  stuck-at cells in the tag-store SRAM   (default 0)
//   --ecc    word protection mode                   (default secded)
//   --flight flight-recorder dump path: the last 8192 soak events (ops,
//            faults, scrub outcomes) are kept in a ring and dumped as a
//            replayable `.ops` artifact at the end of the run — and on a
//            crash or fault escalation via the armed death hooks. Replay
//            with `wfqs_fuzz --replay PATH` or `wfqs_top --replay PATH`.
//   --reshard  soak the *sharded* sorter under live resharding instead:
//            a flow-hashed ShardedSorter (--banks banks, default 4) with
//            an attached ReshardController (auto-rebalance on) runs the
//            same fault-injected drive while banks are added and fenced
//            mid-stream every ~1/16th of the run. Every pop is checked
//            against the flat reference model (migration moves entries
//            between banks but never reorders the aggregate pop stream)
//            and the aggregate size is compared after every op — the
//            zero-loss criterion for fenced-bank drains. A FaultError
//            goes through ShardedSorter::recover(), so an uncorrectable
//            bank rebuild exercises degraded-mode fencing end to end.
//   --live   reshard mode only: live status file for `wfqs_top`,
//            with per-bank `bank <i> state <s> occ ...` rows.
//
// With --timeseries the soak also ticks a windowed timeline (ops, faults,
// injected flips, backlog) every 4096 verified ops on the hw-cycle axis;
// it lands in the JSON export's "timeseries" section.
//
// A faulted operation triggers the Scrubber (relaunder → audit →
// repair/rebuild), the reference is resynchronised from the recovered
// sorter, and the soak continues — the headline numbers are how many
// faults were survived and whether any pop ever came out of order. With
// SECDED every single-bit upset is corrected in place, so the expected
// report is "N faults recovered, 0 order mismatches, 0 entries lost".
//
// The bench also measures a fault-free baseline (no injector, no ECC)
// with the line_rate drive pattern, so the exported JSON shows the
// robustness layer's hot-path cost next to BENCH_line_rate.json.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/reshard.hpp"
#include "core/sharded_sorter.hpp"
#include "core/tag_sorter.hpp"
#include "fault/ecc.hpp"
#include "fault/injector.hpp"
#include "fault/scrubber.hpp"
#include "hw/simulation.hpp"
#include "obs/bench_io.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/profiler.hpp"
#include "ref/ref_sorter.hpp"

using namespace wfqs;

namespace {

struct Options {
    std::uint64_t ops = 1'000'000;
    double rate = 1e-6;
    std::size_t stuck = 0;
    fault::Protection ecc = fault::Protection::kSecded;
    std::string flight;    ///< flight-recorder dump path ("" = off)
    bool reshard = false;  ///< soak the sharded sorter under live resharding
    unsigned banks = 4;    ///< initial bank count for --reshard
    std::string live;      ///< live status file for wfqs_top ("" = off)
};

Options parse_options(int argc, char** argv) {
    Options opt;
    const auto value_of = [&](int& i, const char* flag) -> const char* {
        const std::size_t n = std::strlen(flag);
        if (std::strncmp(argv[i], flag, n) != 0) return nullptr;
        if (argv[i][n] == '=') return argv[i] + n + 1;
        if (argv[i][n] == '\0' && i + 1 < argc) return argv[++i];
        return nullptr;
    };
    for (int i = 1; i < argc; ++i) {
        if (const char* v = value_of(i, "--ops")) {
            opt.ops = std::strtoull(v, nullptr, 10);
        } else if (const char* v = value_of(i, "--rate")) {
            opt.rate = std::strtod(v, nullptr);
        } else if (const char* v = value_of(i, "--stuck")) {
            opt.stuck = std::strtoull(v, nullptr, 10);
        } else if (const char* v = value_of(i, "--ecc")) {
            const auto p = fault::protection_from_string(v);
            if (!p) {
                std::fprintf(stderr, "%s: --ecc wants none|parity|secded, got '%s'\n",
                             argv[0], v);
                std::exit(2);
            }
            opt.ecc = *p;
        } else if (const char* v = value_of(i, "--flight")) {
            opt.flight = v;
        } else if (const char* v = value_of(i, "--banks")) {
            opt.banks = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
        } else if (const char* v = value_of(i, "--live")) {
            opt.live = v;
        } else if (std::strcmp(argv[i], "--reshard") == 0) {
            opt.reshard = true;
        }
        // --json/--seed/--timeseries belong to BenchReporter; anything
        // else is ignored.
    }
    return opt;
}

constexpr std::size_t kCapacity = 4096;
constexpr std::uint32_t kPayloadMask = 0xFF'FFFF;

const char* bank_state_name(core::ShardedSorter::BankState s) {
    switch (s) {
        case core::ShardedSorter::BankState::kActive: return "active";
        case core::ShardedSorter::BankState::kDraining: return "draining";
        case core::ShardedSorter::BankState::kDetached: return "detached";
    }
    return "unknown";
}

/// The --reshard soak: the fault-injected drive from the main soak, but
/// against a flow-hashed ShardedSorter with a live ReshardController.
/// Banks are added and fenced mid-stream, a skewed flow population keeps
/// the auto-rebalancer busy, and the flat reference model verifies that
/// migration never reorders the pop stream and drains never lose a tag.
int run_reshard_soak(const Options& opt, obs::BenchReporter& reporter,
                     std::uint64_t seed) {
    hw::Simulation sim;
    sim.enable_protection(opt.ecc);
    fault::FaultInjector injector(seed);
    fault::MemoryFaultModel model;
    model.bit_flip_per_access = opt.rate;
    injector.set_default_model(model);
    sim.attach_fault_injector(&injector);

    core::ShardedSorter::Config cfg;
    cfg.bank = {tree::TreeGeometry::paper(), kCapacity, 24};
    cfg.num_banks = opt.banks;
    cfg.select = core::ShardedSorter::BankSelect::kFlowHash;
    core::ShardedSorter sorter(cfg, sim);
    if (opt.stuck > 0) {
        // Stuck-at cells land in bank 0's tag-store SRAM — degraded mode's
        // most likely rebuild victim.
        fault::MemoryFaultModel store_model = model;
        Rng placer(seed ^ 0x5743'4b42);
        auto& store_mem = sorter.bank(0).store().memory();
        for (std::size_t i = 0; i < opt.stuck; ++i)
            store_model.stuck_bits.push_back(
                {placer.next_below(store_mem.num_words()),
                 static_cast<unsigned>(placer.next_below(store_mem.word_bits())),
                 placer.next_bool()});
        injector.set_model(store_mem.name(), store_model);
    }

    core::ReshardConfig rcfg;
    rcfg.auto_rebalance = true;
    rcfg.occupancy_skew = 2.0;
    rcfg.min_occupancy = 32;
    rcfg.check_interval = 64;
    core::ReshardController controller(sorter, rcfg);

    sorter.register_metrics(reporter.registry());
    sim.register_metrics(reporter.registry());
    injector.register_metrics(reporter.registry());
    controller.register_metrics(reporter.registry());

    // Flat golden model: migration moves entries *between banks*, never
    // across the aggregate pop order, so the unsharded reference stays
    // the authority on which tag pops next and how many are stored.
    ref::RefSorter oracle;
    Rng rng(seed + 1);
    std::uint64_t done = 0, inserts = 0, pops = 0;
    std::uint64_t faults_recovered = 0, order_mismatches = 0, entries_lost = 0;
    std::uint64_t last_min = 0;
    std::uint64_t steady_ops = 0, steady_cycles = 0;
    std::uint64_t migrating_ops = 0, migrating_cycles = 0;
    std::uint64_t banks_added = 0, banks_fenced = 0;

    std::optional<obs::FlightRecorder> flight;
    if (!opt.flight.empty()) {
        flight.emplace(8192);
        obs::FlightRecorder::install(&*flight);
        obs::FlightRecorder::arm_crash_dump(opt.flight);
    }

    // Live dashboard: the profiler ticks at the soak's own tick points and
    // reads the sorter directly for its `bank <i> ...` rows.
    std::optional<obs::HostProfiler> profiler;
    if (!opt.live.empty()) {
        profiler.emplace(256, std::chrono::milliseconds(50));
        profiler->add_counter("soak.ops", [&done] { return done; });
        profiler->add_counter("soak.migration_moves", [&sorter] {
            return sorter.stats().migration_moves;
        });
        profiler->add_live_line([&sorter] {
            std::ostringstream os;
            for (unsigned i = 0; i < sorter.num_banks(); ++i) {
                if (i != 0) os << "\n";
                os << "bank " << i << " state " << bank_state_name(sorter.bank_state(i))
                   << " occ " << sorter.bank(i).size() << " wait "
                   << sorter.bank_wait_cycles(i) << " ops " << sorter.bank_ops(i);
            }
            return os.str();
        });
        profiler->set_live_path(opt.live);
        profiler->begin_run();
    }

    const bool timeline = reporter.timeseries_enabled();
    if (timeline) {
        auto& ts = reporter.series();
        ts.add_counter("soak.ops", [&done] { return done; });
        ts.add_counter("soak.faults_recovered",
                       [&faults_recovered] { return faults_recovered; });
        ts.add_counter("soak.migration_moves", [&sorter] {
            return sorter.stats().migration_moves;
        });
        ts.add_gauge("soak.active_banks", [&sorter] {
            return static_cast<double>(sorter.active_banks());
        });
        ts.add_gauge("soak.backlog", [&oracle] {
            return static_cast<double>(oracle.size());
        });
    }
    constexpr std::uint64_t kTickEvery = 4096;
    std::uint64_t next_tick = kTickEvery;
    // Live add/fence churn: ~16 reshard events over the run, alternating
    // a fresh bank in and a random active bank out.
    constexpr unsigned kMaxBanks = 64;
    const std::uint64_t churn_every = std::max<std::uint64_t>(opt.ops / 16, 2048);
    std::uint64_t next_churn = churn_every;
    bool add_next = true;
    const std::uint64_t c0 = sim.clock().now();

    while (done < opt.ops) {
        const std::uint64_t current_min =
            oracle.empty() ? last_min : *oracle.min_tag();
        const bool do_insert =
            oracle.size() < 16 || (oracle.size() < 512 && rng.next_bool(0.55));
        // Skewed flow population: flow 0 is an elephant that overloads its
        // bank, keeping the occupancy watcher in play.
        const std::uint64_t flow =
            rng.next_bool(0.5) ? 0 : 1 + rng.next_below(47);
        const bool was_migrating = controller.migrating();
        const std::uint64_t op_c0 = sim.clock().now();
        try {
            if (do_insert) {
                const std::uint64_t tag = current_min + rng.next_below(60);
                const auto payload = static_cast<std::uint32_t>(done) & kPayloadMask;
                sorter.insert(tag, payload, flow);
                oracle.insert(tag, payload);
                obs::flight_record(obs::FlightEventKind::kInsert,
                                   static_cast<double>(done),
                                   static_cast<std::int64_t>(tag - current_min));
                ++inserts;
            } else {
                const auto popped = sorter.pop_min();
                if (!popped || oracle.empty() || popped->tag != *oracle.min_tag()) {
                    ++order_mismatches;
                    obs::flight_record(obs::FlightEventKind::kDivergence,
                                       static_cast<double>(done),
                                       static_cast<std::int64_t>(done));
                    oracle.resync(sorter);
                    continue;
                }
                oracle.pop_min();
                last_min = popped->tag;
                obs::flight_record(obs::FlightEventKind::kPop,
                                   static_cast<double>(done));
                ++pops;
            }
            // Zero-loss criterion: the aggregate may shuffle entries
            // between banks at will, but every op must conserve them.
            if (sorter.size() != oracle.size()) {
                const std::size_t a = sorter.size(), b = oracle.size();
                entries_lost += a < b ? b - a : a - b;
                obs::flight_record(obs::FlightEventKind::kDivergence,
                                   static_cast<double>(done),
                                   static_cast<std::int64_t>(done));
                oracle.resync(sorter);
            }
            const std::uint64_t spent = sim.clock().now() - op_c0;
            if (was_migrating || controller.migrating()) {
                ++migrating_ops;
                migrating_cycles += spent;
            } else {
                ++steady_ops;
                steady_cycles += spent;
            }
            ++done;
            if (done >= next_churn) {
                next_churn += churn_every;
                if (add_next && sorter.num_banks() < kMaxBanks) {
                    if (const auto idx = controller.add_bank()) {
                        ++banks_added;
                        obs::flight_record(obs::FlightEventKind::kReshard,
                                           static_cast<double>(done), 0,
                                           static_cast<std::int64_t>(*idx));
                    }
                } else if (sorter.active_banks() > 1) {
                    std::vector<unsigned> active;
                    for (unsigned i = 0; i < sorter.num_banks(); ++i)
                        if (sorter.bank_state(i) ==
                            core::ShardedSorter::BankState::kActive)
                            active.push_back(i);
                    const unsigned victim = active[rng.next_below(active.size())];
                    if (controller.remove_bank(victim)) {
                        ++banks_fenced;
                        obs::flight_record(obs::FlightEventKind::kReshard,
                                           static_cast<double>(done), 1,
                                           static_cast<std::int64_t>(victim));
                    }
                }
                add_next = !add_next;
            }
            if (done >= next_tick) {
                if (timeline)
                    reporter.series().tick(static_cast<double>(sim.clock().now()));
                if (profiler) profiler->poll();
                next_tick += kTickEvery;
            }
        } catch (const fault::FaultError&) {
            // recover() scrubs every bank; a bank whose scrub escalated to
            // a rebuild is fenced and drained — degraded mode, live.
            ++faults_recovered;
            obs::flight_record(obs::FlightEventKind::kFault,
                               static_cast<double>(done),
                               static_cast<std::int64_t>(faults_recovered));
            const std::size_t before = oracle.size();
            sorter.recover();
            const std::size_t after = sorter.size();
            entries_lost += before > after ? before - after : 0;
            obs::flight_record(obs::FlightEventKind::kScrub,
                               static_cast<double>(done), 0,
                               static_cast<std::int64_t>(before > after
                                                             ? before - after
                                                             : 0));
            oracle.resync(sorter);
        }
    }
    const double soak_cycles = static_cast<double>(sim.clock().now() - c0) /
                               static_cast<double>(opt.ops);
    const double steady_cpo =
        steady_ops ? static_cast<double>(steady_cycles) /
                         static_cast<double>(steady_ops)
                   : 0.0;
    const double migrating_cpo =
        migrating_ops ? static_cast<double>(migrating_cycles) /
                            static_cast<double>(migrating_ops)
                      : 0.0;

    if (profiler) profiler->end_run();

    const auto& rstats = controller.stats();
    std::uint64_t detached = 0;
    for (unsigned i = 0; i < sorter.num_banks(); ++i)
        if (sorter.bank_state(i) == core::ShardedSorter::BankState::kDetached)
            ++detached;
    std::printf("soak               : %.2f cycles/op (recovery + migration included)\n",
                soak_cycles);
    std::printf("steady vs migrating: %.2f vs %.2f cycles/op (%llu vs %llu ops)\n",
                steady_cpo, migrating_cpo,
                static_cast<unsigned long long>(steady_ops),
                static_cast<unsigned long long>(migrating_ops));
    std::printf("ops                : %llu (%llu inserts, %llu pops)\n",
                static_cast<unsigned long long>(done),
                static_cast<unsigned long long>(inserts),
                static_cast<unsigned long long>(pops));
    std::printf("banks              : %u physical, %u active, %llu detached "
                "(%llu added, %llu fenced)\n",
                sorter.num_banks(), sorter.active_banks(),
                static_cast<unsigned long long>(detached),
                static_cast<unsigned long long>(banks_added),
                static_cast<unsigned long long>(banks_fenced));
    std::printf("migration          : %llu moves, %llu stalls, %llu rebalance "
                "triggers\n",
                static_cast<unsigned long long>(sorter.stats().migration_moves),
                static_cast<unsigned long long>(sorter.stats().migration_stalls),
                static_cast<unsigned long long>(rstats.rebalance_triggers));
    std::printf("bit flips injected : %llu\n",
                static_cast<unsigned long long>(injector.stats().transient_flips));
    std::printf("ecc corrected      : %llu, uncorrectable: %llu\n",
                static_cast<unsigned long long>(sim.total_memory_stats().ecc_corrected),
                static_cast<unsigned long long>(
                    sim.total_memory_stats().ecc_uncorrectable));
    std::printf("faults recovered   : %llu\n",
                static_cast<unsigned long long>(faults_recovered));
    std::printf("order mismatches   : %llu\n",
                static_cast<unsigned long long>(order_mismatches));
    std::printf("entries lost       : %llu\n",
                static_cast<unsigned long long>(entries_lost));
    if (flight) {
        flight->dump_to_file(
            opt.flight,
            "fault_soak --reshard post-run dump: " +
                std::to_string(faults_recovered) + " faults recovered, " +
                std::to_string(order_mismatches) + " order mismatches, " +
                std::to_string(sorter.stats().migration_moves) +
                " migration moves, seed " + std::to_string(seed) +
                "\nreplay: wfqs_fuzz --replay <this file> or wfqs_top "
                "--replay <this file>");
        std::printf("flight dump        : %s (%zu of %llu events)\n",
                    opt.flight.c_str(), flight->size(),
                    static_cast<unsigned long long>(flight->total_recorded()));
    }

    auto& reg = reporter.registry();
    reg.counter("soak.ops").inc(done);
    reg.counter("soak.inserts").inc(inserts);
    reg.counter("soak.pops").inc(pops);
    reg.counter("soak.faults_recovered").inc(faults_recovered);
    reg.counter("soak.order_mismatches").inc(order_mismatches);
    reg.counter("soak.entries_lost").inc(entries_lost);
    reg.counter("soak.reshard.banks_added").inc(banks_added);
    reg.counter("soak.reshard.banks_fenced").inc(banks_fenced);
    reg.counter("soak.reshard.banks_detached").inc(detached);
    reg.gauge("soak.cycles_per_op").set(soak_cycles);
    reg.gauge("soak.reshard.steady_cycles_per_op").set(steady_cpo);
    reg.gauge("soak.reshard.migrating_cycles_per_op").set(migrating_cpo);
    reg.gauge("soak.flip_rate").set(opt.rate);
    reporter.finish();

    const bool clean = order_mismatches == 0 && entries_lost == 0;
    if (opt.ecc != fault::Protection::kNone && !clean) {
        std::printf("\nFAIL: resharding diverged from the reference model "
                    "(order or entry count)\n");
        return 1;
    }
    std::printf("\nPASS: pop order %s the reference model across %llu "
                "migration moves\n",
                clean ? "identical to" : "diverged (unprotected run) from",
                static_cast<unsigned long long>(sorter.stats().migration_moves));
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    obs::BenchReporter reporter("fault_soak", argc, argv);
    const Options opt = parse_options(argc, argv);
    const std::uint64_t seed = reporter.seed(42);

    std::printf("== fault soak%s: %llu ops, flip rate %g/access, ecc %s, "
                "%zu stuck bits, seed %llu ==\n\n",
                opt.reshard ? " (live resharding)" : "",
                static_cast<unsigned long long>(opt.ops), opt.rate,
                fault::to_string(opt.ecc), opt.stuck,
                static_cast<unsigned long long>(seed));

    if (opt.reshard) return run_reshard_soak(opt, reporter, seed);

    // --- fault-free baseline (the hot-path cost yardstick) --------------
    double baseline_cycles = 0.0;
    {
        hw::Simulation sim;
        core::TagSorter sorter({tree::TreeGeometry::paper(), kCapacity, 24}, sim);
        Rng rng(seed);
        sorter.insert(0, 0);
        const std::uint64_t c0 = sim.clock().now();
        constexpr int kBaselineOps = 100000;
        for (int i = 0; i < kBaselineOps; ++i)
            sorter.insert_and_pop(sorter.peek_min()->tag + rng.next_below(60), 0);
        baseline_cycles = static_cast<double>(sim.clock().now() - c0) / kBaselineOps;
        std::printf("baseline (no injection, no ECC): %.2f cycles/op over %d ops\n",
                    baseline_cycles, kBaselineOps);
    }

    // --- chaos run ------------------------------------------------------
    hw::Simulation sim;
    sim.enable_protection(opt.ecc);
    fault::FaultInjector injector(seed);
    fault::MemoryFaultModel model;
    model.bit_flip_per_access = opt.rate;
    injector.set_default_model(model);
    sim.attach_fault_injector(&injector);

    core::TagSorter sorter({tree::TreeGeometry::paper(), kCapacity, 24}, sim);
    if (opt.stuck > 0) {
        // Stuck-at cells land in the tag-store SRAM — the biggest target.
        fault::MemoryFaultModel store_model = model;
        Rng placer(seed ^ 0x5743'4b42);  // independent of the flip stream
        auto& store_mem = sorter.store().memory();
        for (std::size_t i = 0; i < opt.stuck; ++i)
            store_model.stuck_bits.push_back(
                {placer.next_below(store_mem.num_words()),
                 static_cast<unsigned>(placer.next_below(store_mem.word_bits())),
                 placer.next_bool()});
        injector.set_model(store_mem.name(), store_model);
    }

    fault::Scrubber scrubber(sorter);
    sorter.register_metrics(reporter.registry());
    sim.register_metrics(reporter.registry());
    injector.register_metrics(reporter.registry());
    scrubber.register_metrics(reporter.registry());

    // Unconstrained golden model (no capacity/window preconditions): the
    // drive pattern stays inside the sorter's own discipline, and after
    // an unprotected fault the model must re-adopt whatever the recovered
    // circuit holds, valid or not.
    ref::RefSorter oracle;
    Rng rng(seed + 1);  // drive stream, distinct from the injector's
    std::uint64_t done = 0, inserts = 0, pops = 0;
    std::uint64_t faults_recovered = 0, order_mismatches = 0, entries_lost = 0;
    std::uint64_t last_min = 0;

    // Post-mortem ring: ops land as replayable `i <delta>` / `p` lines,
    // faults and scrub outcomes as annotations. The death hooks dump it
    // if an escalation aborts the soak; a clean run dumps at the end.
    std::optional<obs::FlightRecorder> flight;
    if (!opt.flight.empty()) {
        flight.emplace(8192);
        obs::FlightRecorder::install(&*flight);
        obs::FlightRecorder::arm_crash_dump(opt.flight);
    }

    // Windowed soak timeline on the hw-cycle axis, ticked every 4096
    // verified ops. Probes read the loop's own tallies.
    const bool timeline = reporter.timeseries_enabled();
    if (timeline) {
        auto& ts = reporter.series();
        ts.add_counter("soak.ops", [&done] { return done; });
        ts.add_counter("soak.faults_recovered",
                       [&faults_recovered] { return faults_recovered; });
        ts.add_counter("soak.flips_injected", [&injector] {
            return injector.stats().transient_flips;
        });
        ts.add_gauge("soak.backlog", [&oracle] {
            return static_cast<double>(oracle.size());
        });
    }
    constexpr std::uint64_t kTickEvery = 4096;
    std::uint64_t next_tick = kTickEvery;
    const std::uint64_t c0 = sim.clock().now();

    while (done < opt.ops) {
        const std::uint64_t current_min =
            oracle.empty() ? last_min : *oracle.min_tag();
        const bool do_insert =
            oracle.size() < 16 || (oracle.size() < 512 && rng.next_bool(0.55));
        try {
            if (do_insert) {
                const std::uint64_t tag = current_min + rng.next_below(60);
                const auto payload = static_cast<std::uint32_t>(done) & kPayloadMask;
                sorter.insert(tag, payload);
                oracle.insert(tag, payload);
                obs::flight_record(obs::FlightEventKind::kInsert,
                                   static_cast<double>(done),
                                   static_cast<std::int64_t>(tag - current_min));
                ++inserts;
            } else {
                const auto popped = sorter.pop_min();
                if (!popped) {
                    // Sorter disagrees that anything is stored: silent loss
                    // (only reachable without ECC). Resync and move on.
                    ++order_mismatches;
                    obs::flight_record(obs::FlightEventKind::kDivergence,
                                       static_cast<double>(done),
                                       static_cast<std::int64_t>(done));
                    oracle.resync(sorter);
                    continue;
                }
                if (oracle.empty() || popped->tag != *oracle.min_tag()) {
                    // Out of order: the circuit is now the authority on
                    // what its scrambled memories hold (unprotected runs
                    // only — with ECC this path fails the bench).
                    ++order_mismatches;
                    obs::flight_record(obs::FlightEventKind::kDivergence,
                                       static_cast<double>(done),
                                       static_cast<std::int64_t>(done));
                    oracle.resync(sorter);
                } else {
                    oracle.pop_min();
                }
                last_min = popped->tag;
                obs::flight_record(obs::FlightEventKind::kPop,
                                   static_cast<double>(done));
                ++pops;
            }
            ++done;
            if (timeline && done >= next_tick) {
                reporter.series().tick(static_cast<double>(sim.clock().now()));
                next_tick += kTickEvery;
            }
        } catch (const fault::FaultError&) {
            // The op died mid-flight; the scrubber restores consistency
            // and the sorter becomes the authority on what survived.
            ++faults_recovered;
            obs::flight_record(obs::FlightEventKind::kFault,
                               static_cast<double>(done),
                               static_cast<std::int64_t>(faults_recovered));
            const auto outcome = scrubber.scrub();
            entries_lost += outcome.entries_lost;
            obs::flight_record(obs::FlightEventKind::kScrub,
                               static_cast<double>(done),
                               static_cast<std::int64_t>(outcome.action),
                               static_cast<std::int64_t>(outcome.entries_lost));
            oracle.resync(sorter);
        }
    }
    const double soak_cycles = static_cast<double>(sim.clock().now() - c0) /
                               static_cast<double>(opt.ops);

    const auto& sstats = scrubber.stats();
    std::printf("soak               : %.2f cycles/op (recovery included)\n", soak_cycles);
    std::printf("ops                : %llu (%llu inserts, %llu pops)\n",
                static_cast<unsigned long long>(done),
                static_cast<unsigned long long>(inserts),
                static_cast<unsigned long long>(pops));
    std::printf("bit flips injected : %llu (+%llu stuck-bit forces)\n",
                static_cast<unsigned long long>(injector.stats().transient_flips),
                static_cast<unsigned long long>(injector.stats().stuck_forces));
    std::printf("ecc corrected      : %llu, uncorrectable: %llu\n",
                static_cast<unsigned long long>(sim.total_memory_stats().ecc_corrected),
                static_cast<unsigned long long>(
                    sim.total_memory_stats().ecc_uncorrectable));
    std::printf("faults recovered   : %llu (scrubs: %llu clean, %llu repaired, "
                "%llu rebuilt)\n",
                static_cast<unsigned long long>(faults_recovered),
                static_cast<unsigned long long>(sstats.clean),
                static_cast<unsigned long long>(sstats.repaired),
                static_cast<unsigned long long>(sstats.rebuilt));
    std::printf("order mismatches   : %llu\n",
                static_cast<unsigned long long>(order_mismatches));
    std::printf("entries lost       : %llu\n",
                static_cast<unsigned long long>(entries_lost));
    if (flight) {
        flight->dump_to_file(
            opt.flight,
            "fault_soak post-run dump: " + std::to_string(faults_recovered) +
                " faults recovered, " + std::to_string(order_mismatches) +
                " order mismatches, seed " + std::to_string(seed) +
                "\nreplay: wfqs_fuzz --replay <this file> or wfqs_top "
                "--replay <this file>");
        std::printf("flight dump        : %s (%zu of %llu events)\n",
                    opt.flight.c_str(), flight->size(),
                    static_cast<unsigned long long>(flight->total_recorded()));
    }

    auto& reg = reporter.registry();
    reg.counter("soak.ops").inc(done);
    reg.counter("soak.inserts").inc(inserts);
    reg.counter("soak.pops").inc(pops);
    reg.counter("soak.faults_recovered").inc(faults_recovered);
    reg.counter("soak.order_mismatches").inc(order_mismatches);
    reg.counter("soak.entries_lost").inc(entries_lost);
    reg.gauge("soak.baseline_cycles_per_op").set(baseline_cycles);
    reg.gauge("soak.cycles_per_op").set(soak_cycles);
    reg.gauge("soak.flip_rate").set(opt.rate);
    reporter.finish();

    // With ECC protection every upset must be invisible in the pop
    // stream; an order mismatch there is a real bug, not bad luck.
    const bool ordered = order_mismatches == 0;
    if (opt.ecc != fault::Protection::kNone && !ordered) {
        std::printf("\nFAIL: pop order diverged from the reference model\n");
        return 1;
    }
    std::printf("\nPASS: pop order %s the reference model\n",
                ordered ? "identical to" : "diverged (unprotected run) from");
    return 0;
}
