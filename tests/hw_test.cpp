// Unit tests for the hardware substrate: clock, SRAM port accounting, and
// the simulation inventory.
#include <gtest/gtest.h>

#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "fault/errors.hpp"
#include "fault/injector.hpp"
#include "hw/clock.hpp"
#include "hw/simulation.hpp"
#include "hw/sram.hpp"

namespace wfqs::hw {
namespace {

TEST(Clock, AdvanceAndReset) {
    Clock c;
    EXPECT_EQ(c.now(), 0u);
    c.advance();
    c.advance(9);
    EXPECT_EQ(c.now(), 10u);
    c.reset();
    EXPECT_EQ(c.now(), 0u);
}

TEST(Sram, ReadBackWrites) {
    Clock clk;
    Sram m("m", 16, 12, clk);
    clk.advance();
    m.write(3, 0xABC);
    clk.advance();
    EXPECT_EQ(m.read(3), 0xABCu);
}

TEST(Sram, WordWidthMasking) {
    Clock clk;
    Sram m("m", 4, 8, clk);
    m.write(0, 0x1FF);  // 9 bits into an 8-bit word
    clk.advance();
    EXPECT_EQ(m.read(0), 0xFFu);
}

TEST(Sram, CountsAccesses) {
    Clock clk;
    Sram m("m", 8, 16, clk);
    m.write(0, 1);
    clk.advance();
    m.read(0);
    clk.advance();
    m.read(0);
    EXPECT_EQ(m.stats().reads, 2u);
    EXPECT_EQ(m.stats().writes, 1u);
    EXPECT_EQ(m.stats().total(), 3u);
}

TEST(SramDeathTest, PortConflictThrows) {
    Clock clk;
    Sram m("single-port", 8, 16, clk);
    m.read(0);
    // A second access in the same cycle exceeds the single port.
    EXPECT_THROW(m.read(1), fault::SramPortConflict);
    // The conflict is observable but non-destructive: the next cycle works.
    clk.advance();
    EXPECT_EQ(m.read(1), 0u);
}

TEST(Sram, DualPortAllowsTwoPerCycle) {
    Clock clk;
    Sram m("dual-port", 8, 16, clk, 2);
    m.read(0);
    m.write(1, 5);
    EXPECT_EQ(m.peak_accesses_per_cycle(), 2u);
    clk.advance();
    EXPECT_EQ(m.read(1), 5u);
}

TEST(Sram, PortFreesNextCycle) {
    Clock clk;
    Sram m("m", 8, 16, clk);
    for (int i = 0; i < 100; ++i) {
        m.read(0);
        clk.advance();
    }
    EXPECT_EQ(m.peak_accesses_per_cycle(), 1u);
}

TEST(Sram, FlashClearClearsRangeInOneAccess) {
    Clock clk;
    Sram m("tree-l3", 64, 16, clk);
    for (std::size_t a = 0; a < 64; ++a) {
        m.write(a, 0xFFFF);
        clk.advance();
    }
    m.flash_clear(16, 16);
    clk.advance();
    EXPECT_EQ(m.peek(15), 0xFFFFu);
    EXPECT_EQ(m.peek(16), 0u);
    EXPECT_EQ(m.peek(31), 0u);
    EXPECT_EQ(m.peek(32), 0xFFFFu);
    EXPECT_EQ(m.stats().flash_clears, 1u);
}

TEST(Sram, PeekDoesNotTouchPortsOrCounters) {
    Clock clk;
    Sram m("m", 8, 16, clk);
    m.write(2, 9);
    EXPECT_EQ(m.peek(2), 9u);  // same cycle as the write: fine, no port use
    EXPECT_EQ(m.stats().reads, 0u);
}

TEST(Sram, RejectsBadConfig) {
    Clock clk;
    EXPECT_THROW(Sram("m", 0, 16, clk), std::invalid_argument);
    EXPECT_THROW(Sram("m", 8, 0, clk), std::invalid_argument);
    EXPECT_THROW(Sram("m", 8, 65, clk), std::invalid_argument);
    EXPECT_THROW(Sram("m", 8, 16, clk, 0), std::invalid_argument);
}

// The host-speed fast lane (no protection, no injector) must be
// observably identical to the full path: same values, same stats, same
// port/peak accounting. Run one access script through both and compare.
TEST(Sram, FastPathMatchesProtectedPathObservably) {
    Clock fast_clk, slow_clk;
    Sram fast("m", 32, 16, fast_clk, 2);
    Sram slow("m", 32, 16, slow_clk, 2);
    slow.enable_protection(fault::Protection::kSecded);  // forces the slow lane

    std::vector<std::uint64_t> fast_reads, slow_reads;
    const auto script = [](Sram& m, Clock& clk, std::vector<std::uint64_t>& reads) {
        for (std::size_t i = 0; i < 32; ++i) {
            m.write(i, 0x1234 + i * 7);
            m.read(i / 2);  // second access same cycle: exercises the ports
            clk.advance();
        }
        m.flash_clear(8, 8);
        clk.advance();
        for (std::size_t i = 0; i < 32; ++i) {
            reads.push_back(m.read(i));
            clk.advance();
        }
    };
    script(fast, fast_clk, fast_reads);
    script(slow, slow_clk, slow_reads);

    EXPECT_EQ(fast_reads, slow_reads);
    EXPECT_EQ(fast.stats().reads, slow.stats().reads);
    EXPECT_EQ(fast.stats().writes, slow.stats().writes);
    EXPECT_EQ(fast.stats().flash_clears, slow.stats().flash_clears);
    EXPECT_EQ(fast.peak_accesses_per_cycle(), slow.peak_accesses_per_cycle());
    EXPECT_EQ(fast.peak_accesses_per_cycle(), 2u);
}

TEST(Sram, FastPathStillEnforcesPortBudget) {
    Clock clk;
    Sram m("m", 8, 16, clk);  // unprotected, no injector: fast lane active
    m.read(0);
    EXPECT_THROW(m.read(1), fault::SramPortConflict);
    clk.advance();
    EXPECT_EQ(m.read(1), 0u);
}

TEST(Sram, FastPathStillChecksBounds) {
    Clock clk;
    Sram m("m", 8, 16, clk);
    EXPECT_THROW(m.read(8), fault::SramAddressError);
    EXPECT_THROW(m.write(100, 1), fault::SramAddressError);
    // A rejected access consumes neither a counter nor a port.
    EXPECT_EQ(m.stats().total(), 0u);
    EXPECT_EQ(m.read(0), 0u);  // the port is still free this cycle
}

TEST(Sram, FastPathMasksWordWidth) {
    Clock clk;
    Sram m("m", 4, 8, clk);
    m.write(0, 0x1FF);
    clk.advance();
    EXPECT_EQ(m.read(0), 0xFFu);
}

// Blocks above kPagedThreshold switch to a paged backing store; that is a
// host-side representation change only. One access script run on a paged
// block and on a dense one must give the same values, stats, throws and
// sweeps.
TEST(Sram, PagedBlockMatchesDenseBlockObservably) {
    constexpr std::size_t kPage = Sram::kPageWords;
    Clock dense_clk, paged_clk;
    Sram dense("m", Sram::kPagedThreshold, 40, dense_clk, 2);
    Sram paged("m", Sram::kPagedThreshold + 1, 40, paged_clk, 2);
    ASSERT_FALSE(dense.paged());
    ASSERT_TRUE(paged.paged());

    struct Observed {
        std::vector<std::string> log;  ///< read values and thrown error types
        std::vector<std::pair<std::size_t, std::uint64_t>> nonzero, window, wiped;
    };
    const std::size_t base = 7 * kPage;  // three pages from here on
    const std::size_t far = 200 * kPage + 3;
    const auto script = [&](Sram& m, Clock& clk) {
        Observed o;
        const auto access = [&](auto&& op) {
            try {
                o.log.push_back(std::to_string(op()));
            } catch (const std::exception& e) {
                o.log.push_back(typeid(e).name());
            }
        };
        const auto read = [&](std::size_t addr) {
            access([&] { return m.read(addr); });
            clk.advance();
        };
        const auto sweep = [&](std::size_t first, std::size_t count, auto& into) {
            m.for_each_nonzero_word_in_range(
                first, count, [&](std::size_t a, std::uint64_t w) { into.emplace_back(a, w); });
        };

        for (std::size_t i = 0; i < 3 * kPage; i += 509) {
            m.write(base + i, 0xABCDE00000ull + i);
            clk.advance();
        }
        m.write(far, 0x55);
        clk.advance();
        // Two ports: the third access of a cycle is a bus conflict.
        access([&] { return m.read(base); });
        access([&] { return m.read(base + 509); });
        access([&] { return m.read(base + 1018); });
        clk.advance();
        read(std::size_t{1} << 21);  // out of range on both blocks
        // Partial pages across a page boundary, then exactly one full page.
        m.flash_clear(base + kPage / 2, kPage);
        clk.advance();
        m.flash_clear(base + 2 * kPage, kPage);
        clk.advance();
        for (std::size_t i = 0; i < 3 * kPage; i += 509) read(base + i);

        m.enable_protection(fault::Protection::kSecded);
        m.write(base + 2 * kPage + 1, 77);
        clk.advance();
        m.corrupt(base, 1u << 5);                   // single upset: corrected
        m.corrupt(base + 509 * 5, 0b11);            // double upset: uncorrectable
        m.corrupt(far + kPage, std::uint64_t{1} << 39);  // upset in an absent page
        for (const std::size_t a : {base, base + 509 * 5, far + kPage, base + 2 * kPage + 1})
            read(a);
        m.corrupt(base + 509 * 6, 1u << 7);
        m.relaunder();  // fixes that word, re-encodes the uncorrectable one
        read(base + 509 * 5);
        m.flash_clear(base + 2 * kPage, 4);
        clk.advance();
        m.poke(far + 1, 0x99);

        sweep(base - kPage, 5 * kPage, o.window);
        m.for_each_nonzero_word(
            [&](std::size_t a, std::uint64_t w) { o.nonzero.emplace_back(a, w); });
        for (std::size_t a = base - kPage; a < base + 4 * kPage; a += 97)
            o.log.push_back(std::to_string(m.peek(a)) + "/" + std::to_string(m.peek_check(a)));
        m.wipe();
        sweep(0, Sram::kPagedThreshold, o.wiped);
        read(base);
        read(far);
        return o;
    };
    const Observed d = script(dense, dense_clk);
    const Observed p = script(paged, paged_clk);

    EXPECT_EQ(d.log, p.log);
    EXPECT_EQ(d.window, p.window);
    EXPECT_EQ(d.nonzero, p.nonzero);
    EXPECT_TRUE(d.wiped.empty());
    EXPECT_TRUE(p.wiped.empty());
    EXPECT_EQ(dense.stats().reads, paged.stats().reads);
    EXPECT_EQ(dense.stats().writes, paged.stats().writes);
    EXPECT_EQ(dense.stats().flash_clears, paged.stats().flash_clears);
    EXPECT_EQ(dense.stats().ecc_corrected, paged.stats().ecc_corrected);
    EXPECT_EQ(dense.stats().ecc_uncorrectable, paged.stats().ecc_uncorrectable);
    EXPECT_EQ(dense.peak_accesses_per_cycle(), paged.peak_accesses_per_cycle());
    // The script does exercise every outcome it compares.
    EXPECT_EQ(dense.stats().ecc_corrected, 3u);
    EXPECT_EQ(dense.stats().ecc_uncorrectable, 2u);
    EXPECT_FALSE(d.nonzero.empty());
}

TEST(Simulation, InventoryAggregates) {
    Simulation sim;
    Sram& a = sim.make_sram("a", 16, 16);
    Sram& b = sim.make_sram("b", 256, 12);
    a.write(0, 1);
    sim.clock().advance();
    b.read(0);
    sim.clock().advance();
    b.write(1, 2);
    EXPECT_EQ(sim.total_memory_stats().reads, 1u);
    EXPECT_EQ(sim.total_memory_stats().writes, 2u);
    EXPECT_EQ(sim.memories().size(), 2u);
    EXPECT_EQ(sim.total_memory_bits(), 16u * 16u + 256u * 12u);
}

/// Field-by-field sum over the inventory: what total_memory_stats() must
/// equal at every point.
SramStats summed_stats(const Simulation& sim) {
    SramStats sum;
    for (const auto& m : sim.memories()) {
        sum.reads += m->stats().reads;
        sum.writes += m->stats().writes;
        sum.flash_clears += m->stats().flash_clears;
        sum.ecc_corrected += m->stats().ecc_corrected;
        sum.ecc_uncorrectable += m->stats().ecc_uncorrectable;
    }
    return sum;
}

void expect_totals_match(const Simulation& sim, const char* where) {
    const SramStats total = sim.total_memory_stats();
    const SramStats sum = summed_stats(sim);
    EXPECT_EQ(total.reads, sum.reads) << where;
    EXPECT_EQ(total.writes, sum.writes) << where;
    EXPECT_EQ(total.flash_clears, sum.flash_clears) << where;
    EXPECT_EQ(total.ecc_corrected, sum.ecc_corrected) << where;
    EXPECT_EQ(total.ecc_uncorrectable, sum.ecc_uncorrectable) << where;
}

TEST(Simulation, RunningTotalsEqualTheInventorySum) {
    Simulation sim;
    Sram& fast = sim.make_sram("fast", 64, 16);  // unprotected dense: inline lane
    Sram& ecc = sim.make_sram("ecc", 64, 16);
    Sram& paged = sim.make_sram("paged", Sram::kPagedThreshold + Sram::kPageWords, 16);
    Sram& faulty = sim.make_sram("faulty", 64, 16);
    ecc.enable_protection(fault::Protection::kSecded);
    fault::FaultInjector injector(7);
    fault::MemoryFaultModel stuck;
    stuck.stuck_bits.push_back({3, 0, true});
    injector.set_model("faulty", stuck);
    faulty.set_fault_injector(&injector);

    const auto step = [&] { sim.clock().advance(); };
    for (std::size_t i = 0; i < 8; ++i) {
        fast.write(i, i + 1);
        ecc.write(i, i + 1);
        paged.write(Sram::kPagedThreshold + i, i + 1);
        faulty.write(i, i);
        step();
        (void)fast.read(i);
        (void)ecc.read(i);
        (void)paged.read(Sram::kPagedThreshold + i);
        (void)faulty.read(i);
        step();
    }
    fast.flash_clear(0, 4);
    paged.flash_clear(0, Sram::kPageWords);
    step();
    expect_totals_match(sim, "after reads, writes and flash clears");

    ecc.corrupt(1, 1u << 3);  // single upset: corrected on read
    (void)ecc.read(1);
    step();
    ecc.corrupt(2, 0b11);  // double upset: uncorrectable
    EXPECT_THROW((void)ecc.read(2), fault::UncorrectableEccError);
    step();
    ecc.corrupt(4, 1u << 5);
    ecc.corrupt(5, 0b101);
    ecc.relaunder();  // maintenance sweep counts corrections too
    EXPECT_GT(sim.total_memory_stats().ecc_corrected, 1u);
    EXPECT_GT(sim.total_memory_stats().ecc_uncorrectable, 1u);
    EXPECT_GT(injector.stats().accesses_seen, 0u);
    expect_totals_match(sim, "after ECC corrections and uncorrectable reads");

    ecc.reset_stats();
    expect_totals_match(sim, "after one block's reset_stats");
    EXPECT_GT(sim.total_memory_stats().total(), 0u);

    (void)fast.read(5);
    step();
    sim.reset_stats();
    expect_totals_match(sim, "after Simulation::reset_stats");
    EXPECT_EQ(sim.total_memory_stats().total(), 0u);
    faulty.write(0, 1);
    expect_totals_match(sim, "after a write following the reset");
    EXPECT_EQ(sim.total_memory_stats().writes, 1u);
}

TEST(Simulation, ResetStats) {
    Simulation sim;
    Sram& a = sim.make_sram("a", 16, 16);
    a.write(0, 1);
    sim.reset_stats();
    EXPECT_EQ(sim.total_memory_stats().total(), 0u);
}

}  // namespace
}  // namespace wfqs::hw
