// Tests for the sharded multi-bank sorter: randomized equivalence of the
// bank-merged output against a single TagSorter and a reference model
// (including wrap-window epochs and below-minimum inserts), N=1 bit- and
// cycle-identity with the unsharded path, duplicate FIFO order across the
// interleave, flow-hash placement, window widening, overflow contracts,
// and the overlapped-pipeline arbiter model.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "baselines/factory.hpp"
#include "common/rng.hpp"
#include "core/sharded_sorter.hpp"
#include "core/tag_sorter.hpp"
#include "hw/simulation.hpp"
#include "ref/ref_sorter.hpp"

namespace wfqs::core {
namespace {

// Golden model shared with bench/fault_soak and the conformance harness;
// default-constructed it is a plain tag->FIFO multiset with no
// capacity/window preconditions, which is what these streams need.
using ReferenceSorter = ref::RefSorter;

ShardedSorter::Config sharded_config(unsigned num_banks,
                                     std::size_t bank_capacity = 4096) {
    ShardedSorter::Config cfg;
    cfg.bank.capacity = bank_capacity;
    cfg.num_banks = num_banks;
    return cfg;
}

// ------------------------------------------------ randomized equivalence

// Drive identical randomized insert / pop / combined streams through a
// single TagSorter, ShardedSorter instances at several bank counts, and
// the reference model; every retrieval must agree on tag AND payload.
// The stream spans many wrap epochs (logical tags climb far past 2^12)
// and regularly undercuts the minimum.
TEST(ShardedSorter, RandomizedEquivalenceAcrossBankCounts) {
    constexpr int kOps = 6000;
    Rng rng(2024);

    hw::Simulation single_sim;
    TagSorter single({}, single_sim);
    std::vector<std::unique_ptr<hw::Simulation>> sims;
    std::vector<std::unique_ptr<ShardedSorter>> sharded;
    for (const unsigned n : {1u, 2u, 4u, 8u}) {
        sims.push_back(std::make_unique<hw::Simulation>());
        sharded.push_back(
            std::make_unique<ShardedSorter>(sharded_config(n), *sims.back()));
    }
    ReferenceSorter ref;

    std::uint32_t seq = 0;
    const auto gen_tag = [&]() -> std::uint64_t {
        const std::uint64_t base = ref.min_tag().value_or(0);
        // ~1 in 12 tags undercuts the current minimum (the WFQ case the
        // paper's strict discipline forbids); the rest land ahead of it,
        // well inside the single sorter's wrap window.
        if (base > 64 && rng.next_below(12) == 0) return base - 1 - rng.next_below(40);
        return base + rng.next_below(1800);
    };

    for (int i = 0; i < kOps; ++i) {
        const unsigned roll = static_cast<unsigned>(rng.next_below(10));
        if (ref.size() == 0 || roll < 4) {
            const std::uint64_t tag = gen_tag();
            const std::uint32_t payload = seq++;
            single.insert(tag, payload);
            for (auto& s : sharded) s->insert(tag, payload);
            ref.insert(tag, payload);
        } else if (roll < 7) {
            const auto want = ref.pop_min();
            const auto got_single = single.pop_min();
            ASSERT_TRUE(got_single.has_value());
            EXPECT_EQ(got_single->tag, want->tag);
            EXPECT_EQ(got_single->payload, want->payload);
            for (auto& s : sharded) {
                const auto got = s->pop_min();
                ASSERT_TRUE(got.has_value());
                EXPECT_EQ(got->tag, want->tag);
                EXPECT_EQ(got->payload, want->payload);
            }
        } else {
            const std::uint64_t tag = gen_tag();
            const std::uint32_t payload = seq++;
            const SortedTag want = ref.insert_and_pop(tag, payload);
            const SortedTag got_single = single.insert_and_pop(tag, payload);
            EXPECT_EQ(got_single.tag, want.tag);
            EXPECT_EQ(got_single.payload, want.payload);
            for (auto& s : sharded) {
                const SortedTag got = s->insert_and_pop(tag, payload);
                EXPECT_EQ(got.tag, want.tag);
                EXPECT_EQ(got.payload, want.payload);
            }
        }
        // Head-merge agreement after every op.
        const auto min = ref.min_tag();
        for (auto& s : sharded) {
            ASSERT_EQ(s->size(), ref.size());
            const auto peek = s->peek_min();
            ASSERT_EQ(peek.has_value(), min.has_value());
            if (peek) {
                EXPECT_EQ(peek->tag, *min);
            }
        }
    }
    // The stream must actually have crossed wrap epochs and undercut the
    // head, or the test is not exercising what it claims.
    EXPECT_GT(ref.min_tag().value_or(0), std::uint64_t{1} << 12);
    EXPECT_GT(single.stats().head_undercuts, 0u);
}

// Drain-to-empty ordering: after a burst of inserts, pops come out fully
// sorted and FIFO among duplicates, whatever the bank count.
TEST(ShardedSorter, DrainsInSortedOrder) {
    for (const unsigned n : {2u, 4u, 16u}) {
        hw::Simulation sim;
        ShardedSorter s(sharded_config(n), sim);
        ReferenceSorter ref;
        Rng rng(7 + n);
        for (int i = 0; i < 500; ++i) {
            const std::uint64_t tag = rng.next_below(3000);
            s.insert(tag, static_cast<std::uint32_t>(i));
            ref.insert(tag, static_cast<std::uint32_t>(i));
        }
        while (ref.size() > 0) {
            const auto want = ref.pop_min();
            const auto got = s.pop_min();
            ASSERT_TRUE(got.has_value());
            EXPECT_EQ(got->tag, want->tag);
            EXPECT_EQ(got->payload, want->payload);
        }
        EXPECT_TRUE(s.empty());
        EXPECT_FALSE(s.pop_min().has_value());
    }
}

// ------------------------------------------------ N=1 pass-through

// A single-bank ShardedSorter must be indistinguishable from a bare
// TagSorter: same results, same clock-cycle count, same SRAM inventory
// (names, sizes) with identical access tallies.
TEST(ShardedSorter, SingleBankIsCycleIdenticalToTagSorter) {
    hw::Simulation plain_sim;
    TagSorter plain({}, plain_sim);
    hw::Simulation sharded_sim;
    ShardedSorter one(sharded_config(1), sharded_sim);

    Rng rng(99);
    std::uint64_t tag = 0;
    plain.insert(0, 0);
    one.insert(0, 0);
    // Small increments keep the live window (~400 entries after the pure
    // inserts below) well inside the 3840-tag wrap span.
    for (int i = 0; i < 2000; ++i) {
        tag += rng.next_below(10);
        if (i % 5 == 4) {
            plain.insert(tag, static_cast<std::uint32_t>(i));
            one.insert(tag, static_cast<std::uint32_t>(i));
        } else {
            const SortedTag a = plain.insert_and_pop(tag, static_cast<std::uint32_t>(i));
            const SortedTag b = one.insert_and_pop(tag, static_cast<std::uint32_t>(i));
            EXPECT_EQ(a, b);
        }
    }

    EXPECT_EQ(plain_sim.clock().now(), sharded_sim.clock().now());
    ASSERT_EQ(plain_sim.memories().size(), sharded_sim.memories().size());
    for (std::size_t i = 0; i < plain_sim.memories().size(); ++i) {
        const hw::Sram& a = *plain_sim.memories()[i];
        const hw::Sram& b = *sharded_sim.memories()[i];
        EXPECT_EQ(a.name(), b.name());  // no "bank0." scoping at N=1
        EXPECT_EQ(a.num_words(), b.num_words());
        EXPECT_EQ(a.stats().reads, b.stats().reads) << a.name();
        EXPECT_EQ(a.stats().writes, b.stats().writes) << a.name();
        EXPECT_EQ(a.stats().flash_clears, b.stats().flash_clears) << a.name();
        EXPECT_EQ(a.peak_accesses_per_cycle(), b.peak_accesses_per_cycle());
    }
    const SorterStats& sa = plain.stats();
    const SorterStats& sb = one.bank(0).stats();
    EXPECT_EQ(sa.inserts, sb.inserts);
    EXPECT_EQ(sa.combined_ops, sb.combined_ops);
    EXPECT_EQ(sa.sector_invalidations, sb.sector_invalidations);
    EXPECT_EQ(sa.wrap_fallback_searches, sb.wrap_fallback_searches);
    EXPECT_EQ(sa.worst_insert_cycles, sb.worst_insert_cycles);
}

// The one-bank wrapper stays a pass-through through pops down to empty,
// head reads and a refill, and its own books (head-merge updates, the
// sequential and overlapped cycle counts, the bank's op count) are the
// ones the single engine implies: every op is one bank engagement issued
// at 4k (one arrival per cycle, II = 4), retiring max(latency, II) later.
TEST(ShardedSorter, SingleBankPassThroughDrainsAndRefillsIdentically) {
    hw::Simulation plain_sim;
    TagSorter plain({}, plain_sim);
    hw::Simulation sharded_sim;
    ShardedSorter one(sharded_config(1), sharded_sim);

    std::uint64_t ops = 0;
    std::uint64_t makespan = 0;
    const auto account = [&](std::uint64_t cycles) {
        makespan = std::max(makespan, 4 * ops + std::max<std::uint64_t>(cycles, 4));
        ++ops;
    };
    const auto insert = [&](std::uint64_t tag, std::uint32_t payload) {
        const std::uint64_t t0 = plain_sim.clock().now();
        plain.insert(tag, payload);
        one.insert(tag, payload);
        account(plain_sim.clock().now() - t0);
    };
    const auto pop = [&] {
        ASSERT_EQ(plain.peek_min(), one.peek_min());
        const std::uint64_t t0 = plain_sim.clock().now();
        const auto a = plain.pop_min();
        const auto b = one.pop_min();
        ASSERT_EQ(a, b);
        account(plain_sim.clock().now() - t0);
    };

    Rng rng(7);
    std::uint64_t tag = 0;
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 300; ++i) {
            tag += rng.next_below(6);
            insert(tag, static_cast<std::uint32_t>(i));
            if (i % 3 == 2) pop();
        }
        while (!one.empty()) pop();
        EXPECT_EQ(plain.size(), 0u);
        EXPECT_EQ(one.size(), 0u);
        EXPECT_FALSE(one.peek_min().has_value());
        EXPECT_FALSE(one.pop_min().has_value());  // an empty pop is no op
    }

    EXPECT_EQ(plain_sim.clock().now(), sharded_sim.clock().now());
    for (std::size_t i = 0; i < plain_sim.memories().size(); ++i) {
        const hw::Sram& a = *plain_sim.memories()[i];
        const hw::Sram& b = *sharded_sim.memories()[i];
        EXPECT_EQ(a.stats().reads, b.stats().reads) << a.name();
        EXPECT_EQ(a.stats().writes, b.stats().writes) << a.name();
        EXPECT_EQ(a.stats().flash_clears, b.stats().flash_clears) << a.name();
    }
    const ShardedStats& st = one.stats();
    EXPECT_EQ(st.head_merge_updates, ops);
    EXPECT_EQ(st.sequential_cycles, plain_sim.clock().now());
    EXPECT_EQ(st.inserts + st.pops, ops);
    EXPECT_EQ(st.bank_wait_cycles, 3 * ops * (ops - 1) / 2);  // op k waits 4k - k
    EXPECT_EQ(one.bank_ops(0), ops);
    EXPECT_EQ(one.modeled_cycles(), makespan);
    EXPECT_EQ(plain.stats().pop_cycles_total, one.bank(0).stats().pop_cycles_total);
    EXPECT_EQ(plain.stats().worst_pop_cycles, one.bank(0).stats().worst_pop_cycles);
}

// The factory's model-backed queue bills each op the SRAM accesses it
// caused, read off the simulation's running total: the per-memory deltas
// summed over the inventory must give the same totals and worst cases.
TEST(ShardedSorter, FactoryQueueBillsThePerMemoryAccessDeltas) {
    baselines::QueueParams params;
    params.range_bits = 12;
    params.capacity = 1024;
    const auto queue = baselines::make_tag_queue(baselines::QueueKind::MultibitTree, params);
    hw::Simulation* sim = queue->simulation();
    ASSERT_NE(sim, nullptr);
    const auto inventory_total = [&] {
        std::uint64_t n = 0;
        for (const auto& m : sim->memories()) n += m->stats().total();
        return n;
    };

    std::uint64_t total = 0;
    std::uint64_t worst_insert = 0;
    std::uint64_t worst_pop = 0;
    Rng rng(11);
    std::uint64_t tag = 0;
    for (int i = 0; i < 3000; ++i) {
        const std::uint64_t before = inventory_total();
        const bool do_pop = !queue->empty() && rng.next_below(2) == 0;
        if (do_pop) {
            ASSERT_TRUE(queue->pop_min().has_value());
        } else {
            tag += rng.next_below(8);
            queue->insert(tag, static_cast<std::uint32_t>(i));
        }
        (void)queue->peek_min();  // a register read: no accesses
        const std::uint64_t used = inventory_total() - before;
        total += used;
        std::uint64_t& worst = do_pop ? worst_pop : worst_insert;
        worst = std::max(worst, used);
    }
    EXPECT_EQ(queue->stats().accesses_total, total);
    EXPECT_EQ(queue->stats().worst_insert_accesses, worst_insert);
    EXPECT_EQ(queue->stats().worst_pop_accesses, worst_pop);
    EXPECT_EQ(sim->total_memory_stats().total(), total);
    EXPECT_GT(worst_insert, 0u);
    EXPECT_GT(worst_pop, 0u);
}

// Multi-bank inventories scope every memory per bank.
TEST(ShardedSorter, MultiBankInventoryIsScopedPerBank) {
    hw::Simulation sim;
    ShardedSorter s(sharded_config(4), sim);
    EXPECT_NE(sim.find_memory("bank0.tag-store"), nullptr);
    EXPECT_NE(sim.find_memory("bank3.translation-table"), nullptr);
    EXPECT_NE(sim.find_memory("bank2.tree-level-2"), nullptr);
    EXPECT_EQ(sim.find_memory("tag-store"), nullptr);
    EXPECT_EQ(sim.memories().size(), 4u * 3u);
}

// ------------------------------------------------ placement policies

TEST(ShardedSorter, InterleaveKeepsDuplicateFifoOrder) {
    hw::Simulation sim;
    ShardedSorter s(sharded_config(4), sim);
    s.insert(100, 1);
    s.insert(107, 2);
    s.insert(100, 3);  // duplicate of 100: same bank, FIFO behind payload 1
    s.insert(100, 4);
    const auto a = s.pop_min();
    const auto b = s.pop_min();
    const auto c = s.pop_min();
    const auto d = s.pop_min();
    EXPECT_EQ(a->payload, 1u);
    EXPECT_EQ(b->payload, 3u);
    EXPECT_EQ(c->payload, 4u);
    EXPECT_EQ(d->tag, 107u);
}

TEST(ShardedSorter, FlowHashPinsAFlowToOneBank) {
    ShardedSorter::Config cfg = sharded_config(8);
    cfg.select = ShardedSorter::BankSelect::kFlowHash;
    hw::Simulation sim;
    ShardedSorter s(cfg, sim);
    // All of flow 7's tags must land in one bank; pops still merge by value.
    for (int i = 0; i < 32; ++i)
        s.insert(static_cast<std::uint64_t>(10 * i), static_cast<std::uint32_t>(i),
                 /*flow_key=*/7);
    unsigned populated = 0;
    for (unsigned b = 0; b < s.num_banks(); ++b)
        populated += s.bank(b).size() > 0 ? 1 : 0;
    EXPECT_EQ(populated, 1u);

    for (int i = 0; i < 64; ++i)
        s.insert(1 + static_cast<std::uint64_t>(5 * i),
                 static_cast<std::uint32_t>(100 + i),
                 /*flow_key=*/static_cast<std::uint64_t>(i));
    std::uint64_t last = 0;
    while (const auto popped = s.pop_min()) {
        EXPECT_GE(popped->tag, last);
        last = popped->tag;
    }
}

// ------------------------------------------------ window discipline

// Interleaving compresses each bank's local tags by N, so the aggregate
// live window is N x the single-bank span (the Fig. 6 discipline applies
// per bank, to local values).
TEST(ShardedSorter, InterleaveWidensTheWrapWindow) {
    hw::Simulation single_sim;
    TagSorter single({}, single_sim);
    hw::Simulation sim;
    ShardedSorter four(sharded_config(4), sim);
    EXPECT_EQ(four.window_span(), single.window_span() * 4);

    const std::uint64_t beyond_single = single.window_span() + 512;
    single.insert(0, 0);
    EXPECT_THROW(single.insert(beyond_single, 1), std::invalid_argument);
    four.insert(0, 0);
    four.insert(beyond_single, 1);  // within 4x span: accepted
    EXPECT_EQ(four.pop_min()->tag, 0u);
    EXPECT_EQ(four.pop_min()->tag, beyond_single);

    // The aggregate limit is still finite: window_span() maps to local
    // delta = bank span inside an already-populated bank, which the
    // per-bank Fig. 6 discipline rejects.
    hw::Simulation sim2;
    ShardedSorter four2(sharded_config(4), sim2);
    four2.insert(0, 0);
    EXPECT_THROW(four2.insert(four2.window_span(), 1), std::invalid_argument);
    EXPECT_EQ(four2.size(), 1u);  // rejected insert left every bank intact
}

TEST(ShardedSorter, BelowMinimumInsertBecomesTheHead) {
    hw::Simulation sim;
    ShardedSorter s(sharded_config(4), sim);
    s.insert(1000, 1);
    s.insert(1005, 2);
    s.insert(997, 3);  // undercut: head moves down, lands in bank 997 % 4
    EXPECT_EQ(s.peek_min()->tag, 997u);
    std::uint64_t undercuts = 0;
    for (unsigned b = 0; b < s.num_banks(); ++b)
        undercuts += s.bank(b).stats().head_undercuts;
    EXPECT_EQ(undercuts, 1u);
    EXPECT_EQ(s.pop_min()->payload, 3u);
    EXPECT_EQ(s.pop_min()->payload, 1u);
}

// ------------------------------------------------ capacity contracts

TEST(ShardedSorter, FullBankThrowsOverflow) {
    hw::Simulation sim;
    ShardedSorter s(sharded_config(2, /*bank_capacity=*/4), sim);
    EXPECT_EQ(s.capacity(), 8u);
    for (std::uint64_t t = 0; t < 8; ++t)
        s.insert(t, static_cast<std::uint32_t>(t));
    EXPECT_TRUE(s.full());
    EXPECT_THROW(s.insert(8, 8), std::overflow_error);  // bank 0 full
    EXPECT_EQ(s.size(), 8u);                            // nothing leaked
}

// ------------------------------------------------ arbiter model

// Saturating alternating insert/pop streams: one bank sustains one op per
// initiation interval; four banks overlap to approach one op per cycle.
TEST(ShardedSorter, ModeledThroughputScalesWithBanks) {
    struct Model {
        double cycles_per_op = 0.0;
        double overlap = 0.0;
        unsigned ii = 0;
        std::uint64_t wait_cycles = 0;
        std::vector<std::uint64_t> bank_ops;
    };
    const auto run = [](unsigned banks) {
        hw::Simulation sim;
        ShardedSorter s(sharded_config(banks), sim);
        Rng rng(31);
        std::uint64_t tag = 0;
        for (int i = 0; i < 256; ++i) s.insert(tag += rng.next_below(8), 0);
        for (int i = 0; i < 4000; ++i) {
            tag += rng.next_below(8);
            s.insert(tag, 0);
            s.pop_min();
        }
        Model m{s.modeled_cycles_per_op(), s.overlap_factor(), s.pipeline_interval(),
                s.stats().bank_wait_cycles, {}};
        for (unsigned b = 0; b < banks; ++b) m.bank_ops.push_back(s.bank_ops(b));
        return m;
    };
    const Model s1 = run(1);
    const Model s4 = run(4);
    EXPECT_NEAR(s1.cycles_per_op, s1.ii, 0.3);
    // The issue-wide ">= 3x modeled throughput at N=4" acceptance bar.
    EXPECT_LE(s4.cycles_per_op, s1.cycles_per_op / 3.0);
    EXPECT_GT(s4.overlap, 2.0);                // overlap bought real cycles
    EXPECT_GT(s4.wait_cycles, 0u);             // some bank conflicts did occur
    for (const std::uint64_t ops : s4.bank_ops)  // work spread across banks
        EXPECT_GT(ops, 0u);
}

// Cross-bank combined ops engage two banks in the same arrival slot.
TEST(ShardedSorter, CombinedOpsSplitAcrossBanks) {
    hw::Simulation sim;
    ShardedSorter s(sharded_config(4), sim);
    s.insert(0, 1);                             // bank 0
    const SortedTag r = s.insert_and_pop(5, 2);  // insert bank 1, pop bank 0
    EXPECT_EQ(r.tag, 0u);
    EXPECT_EQ(r.payload, 1u);
    EXPECT_EQ(s.stats().cross_bank_combined, 1u);
    const SortedTag r2 = s.insert_and_pop(9, 3);  // both in bank 1: fused
    EXPECT_EQ(r2.tag, 5u);
    EXPECT_EQ(s.stats().same_bank_combined, 1u);
}

TEST(ShardedSorter, RecoverScrubsEveryBank) {
    hw::Simulation sim;
    ShardedSorter s(sharded_config(2), sim);
    for (std::uint64_t t = 0; t < 32; ++t) s.insert(t, static_cast<std::uint32_t>(t));
    EXPECT_TRUE(s.recover());
    for (std::uint64_t t = 0; t < 32; ++t) EXPECT_EQ(s.pop_min()->tag, t);
}

// A scrub that rebuilds a bank can move that bank's head; recover() must
// re-derive the head-merge state or the next pop serves a non-minimum
// bank. Corrupt the tag of the minimum bank's head so the rebuild re-sorts
// it to the back, shifting the global minimum to the *other* bank.
TEST(ShardedSorter, RecoverRefreshesHeadMergeAfterRebuild) {
    hw::Simulation sim;
    ShardedSorter s(sharded_config(2), sim);
    s.insert(2, 20);  // bank 0, local 1
    s.insert(4, 40);  // bank 0, local 2
    s.insert(1, 10);  // bank 1, local 0  <- global minimum
    s.insert(3, 30);  // bank 1, local 1
    ASSERT_EQ(s.peek_min()->tag, 1u);

    auto& store = s.bank(1).store();
    auto head = store.peek_slot(store.head_addr());
    head.entry.tag = 100;  // local 100 = global 201, now bank 1's largest
    store.poke_slot(store.head_addr(), head);

    EXPECT_TRUE(s.recover());
    // Bank 1 rebuilt to {3, 201}; the global head must switch to bank 0.
    EXPECT_EQ(s.peek_min()->tag, 2u);
    const std::uint64_t expect[] = {2, 3, 4, 201};
    for (const std::uint64_t t : expect) EXPECT_EQ(s.pop_min()->tag, t);
    EXPECT_TRUE(s.empty());
}

}  // namespace
}  // namespace wfqs::core
