// Tests for the multi-bit search tree: geometry equations (paper eqs. 2-3),
// the worked examples of Figs. 4 and 5, closest-match search with backup
// path, insertion/erasure, sector invalidation (Fig. 6), cycle costs, and
// randomized cross-checks against std::set.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fault/errors.hpp"
#include "hw/simulation.hpp"
#include "matcher/matcher.hpp"
#include "tree/geometry.hpp"
#include "tree/multibit_tree.hpp"

namespace wfqs::tree {
namespace {

// ------------------------------------------------------------- geometry

TEST(TreeGeometry, PaperConfig) {
    const TreeGeometry g = TreeGeometry::paper();
    EXPECT_EQ(g.branching(), 16u);
    EXPECT_EQ(g.tag_bits(), 12u);
    EXPECT_EQ(g.capacity(), 4096u);
}

TEST(TreeGeometry, PaperMemoryEquations) {
    // §III-A: "The first two levels of the tree are relatively small, 272
    // bits in total ... The third level is 4 kbits."
    const TreeGeometry g = TreeGeometry::paper();
    EXPECT_EQ(g.level_memory_bits(0), 16u);
    EXPECT_EQ(g.level_memory_bits(1), 256u);
    EXPECT_EQ(g.level_memory_bits(0) + g.level_memory_bits(1), 272u);
    EXPECT_EQ(g.level_memory_bits(2), 4096u);
    EXPECT_EQ(g.total_memory_bits(), 16u + 256u + 4096u);
}

TEST(TreeGeometry, MultibitBeatsBinaryMemory) {
    // §III-A: a multi-bit tree needs less memory than a binary tree over
    // the same value space.
    const TreeGeometry multi = TreeGeometry::paper();
    const TreeGeometry binary = TreeGeometry::binary(12);
    EXPECT_EQ(binary.capacity(), multi.capacity());
    EXPECT_LT(multi.total_memory_bits(), binary.total_memory_bits());
}

TEST(TreeGeometry, LiteralAndNodeIndex) {
    const TreeGeometry g = TreeGeometry::paper();
    EXPECT_EQ(g.literal(0xABC, 0), 0xAu);
    EXPECT_EQ(g.literal(0xABC, 2), 0xCu);
    EXPECT_EQ(g.node_index(0xABC, 0), 0u);
    EXPECT_EQ(g.node_index(0xABC, 1), 0xAu);
    EXPECT_EQ(g.node_index(0xABC, 2), 0xABu);
}

TEST(TreeGeometry, ValidateRejectsBadShapes) {
    EXPECT_THROW((TreeGeometry{0, 4}).validate(), std::invalid_argument);
    EXPECT_THROW((TreeGeometry{3, 0}).validate(), std::invalid_argument);
    EXPECT_THROW((TreeGeometry{3, 7}).validate(), std::invalid_argument);
    EXPECT_THROW((TreeGeometry{9, 4}).validate(), std::invalid_argument);  // 36 > 32 bits
    EXPECT_THROW(TreeGeometry::heterogeneous({4, 0, 4}).validate(),
                 std::invalid_argument);
    EXPECT_THROW(TreeGeometry::heterogeneous({6, 6, 6, 6, 6, 6}).validate(),
                 std::invalid_argument);  // 36 > 32 bits
    EXPECT_NO_THROW((TreeGeometry{8, 4}).validate());  // full 32-bit tag space
    EXPECT_NO_THROW(TreeGeometry::paper().validate());
    EXPECT_NO_THROW(TreeGeometry::binary(12).validate());
    EXPECT_NO_THROW(TreeGeometry::wide32().validate());
}

TEST(TreeGeometry, HeterogeneousLevelMath) {
    const TreeGeometry g = TreeGeometry::wide32();  // {2, 6, 6, 6, 6, 6}
    EXPECT_FALSE(g.uniform());
    EXPECT_EQ(g.tag_bits(), 32u);
    EXPECT_EQ(g.capacity(), std::uint64_t{1} << 32);
    EXPECT_EQ(g.branching(), 4u);  // root sector count = 2^2
    EXPECT_EQ(g.branching(1), 64u);
    EXPECT_EQ(g.prefix_bits(0), 0u);
    EXPECT_EQ(g.prefix_bits(5), 26u);
    EXPECT_EQ(g.suffix_bits(0), 32u);
    EXPECT_EQ(g.suffix_bits(5), 6u);
    EXPECT_EQ(g.nodes_at_level(0), 1u);
    EXPECT_EQ(g.nodes_at_level(5), std::uint64_t{1} << 26);
    const std::uint64_t v = 0xDEADBEEFull;
    EXPECT_EQ(g.node_index(v, 0), 0u);
    EXPECT_EQ(g.node_index(v, 5), v >> 6);
    // Reassembling the literals must reproduce the value.
    std::uint64_t rebuilt = 0;
    for (unsigned l = 0; l < g.levels; ++l)
        rebuilt = (rebuilt << g.level_bits(l)) | g.literal(v, l);
    EXPECT_EQ(rebuilt, v);
}

TEST(TreeGeometry, OversizedLevelThrowsTypedInventoryError) {
    // binary(32) wants a 2^31-node leaf level — beyond the simulated SRAM
    // inventory; must surface as the typed fault, not an allocation blowup.
    hw::Simulation sim;
    matcher::BehavioralMatcher m;
    EXPECT_THROW(
        MultibitTree(MultibitTree::Config{TreeGeometry::binary(32), 2}, sim, m),
        fault::SramInventoryError);
}

// --------------------------------------------------------- fixture

struct TreeFixture {
    hw::Simulation sim;
    matcher::BehavioralMatcher matcher;
    MultibitTree tree;

    explicit TreeFixture(TreeGeometry g = TreeGeometry::paper())
        : tree(MultibitTree::Config{g, 2u < g.levels ? 2u : 1u}, sim, matcher) {}
};

// ----------------------------------------------------- paper examples

TEST(TreeSearch, PaperFig4Example) {
    // Fig. 4: a 6-bit tree (three 2-bit literals) holding 001001, 110101,
    // 110111. Searching for 110110 must return 110101.
    TreeFixture f(TreeGeometry{3, 2});
    f.tree.insert(0b001001);
    f.tree.insert(0b110101);
    f.tree.insert(0b110111);
    const auto r = f.tree.closest_leq(0b110110);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(*r, 0b110101u);
}

TEST(TreeSearch, PaperFig5BackupPath) {
    // Fig. 5: searching 110100 with {001001, 110101, 110111} fails in the
    // third level ("00" has nothing at or below it) and the backup path
    // from the root must deliver 001001.
    TreeFixture f(TreeGeometry{3, 2});
    f.tree.insert(0b001001);
    f.tree.insert(0b110101);
    f.tree.insert(0b110111);
    const auto r = f.tree.closest_leq(0b110100);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(*r, 0b001001u);
    EXPECT_EQ(f.tree.stats().backup_descents, 1u);
}

TEST(TreeSearch, PaperFig5PointCVariant) {
    // Fig. 5 point "C": if literal "00" also existed in the second level
    // node (value 11 00 xx present), the backup in the *second* level is
    // used instead of the root's.
    TreeFixture f(TreeGeometry{3, 2});
    f.tree.insert(0b001001);
    f.tree.insert(0b110011);  // creates literal "00" in the level-2 node of "11"
    f.tree.insert(0b110101);
    f.tree.insert(0b110111);
    const auto r = f.tree.closest_leq(0b110100);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(*r, 0b110011u);
}

// ------------------------------------------------------- basic behaviour

TEST(TreeSearch, EmptyTreeFindsNothing) {
    TreeFixture f;
    EXPECT_FALSE(f.tree.closest_leq(4095).has_value());
    EXPECT_TRUE(f.tree.empty());
}

TEST(TreeSearch, ExactValuePresent) {
    TreeFixture f;
    f.tree.insert(100);
    EXPECT_EQ(f.tree.closest_leq(100), std::optional<std::uint64_t>(100));
}

TEST(TreeSearch, NothingBelowQuery) {
    TreeFixture f;
    f.tree.insert(200);
    EXPECT_FALSE(f.tree.closest_leq(199).has_value());
    EXPECT_EQ(f.tree.closest_leq(200), std::optional<std::uint64_t>(200));
    EXPECT_EQ(f.tree.closest_leq(4095), std::optional<std::uint64_t>(200));
}

TEST(TreeSearch, InsertIsIdempotent) {
    TreeFixture f;
    f.tree.insert(77);
    f.tree.insert(77);
    EXPECT_EQ(f.tree.marker_count(), 1u);
    f.tree.erase(77);
    EXPECT_TRUE(f.tree.empty());
    EXPECT_FALSE(f.tree.contains(77));
}

TEST(TreeSearch, SearchAndInsertReturnsPreInsertMatch) {
    TreeFixture f;
    f.tree.insert(10);
    const auto r = f.tree.search_and_insert(50);
    EXPECT_EQ(r, std::optional<std::uint64_t>(10));
    EXPECT_TRUE(f.tree.contains(50));
    // Second insert of a larger value must now find 50.
    EXPECT_EQ(f.tree.search_and_insert(60), std::optional<std::uint64_t>(50));
}

TEST(TreeSearch, SearchAndInsertOfPresentValueFindsItself) {
    TreeFixture f;
    f.tree.insert(123);
    EXPECT_EQ(f.tree.search_and_insert(123), std::optional<std::uint64_t>(123));
    EXPECT_EQ(f.tree.marker_count(), 1u);
}

TEST(TreeSearch, EraseKeepsSiblings) {
    TreeFixture f;
    f.tree.insert(0x120);
    f.tree.insert(0x121);
    f.tree.erase(0x120);
    EXPECT_FALSE(f.tree.contains(0x120));
    EXPECT_TRUE(f.tree.contains(0x121));
    EXPECT_EQ(f.tree.closest_leq(0x125), std::optional<std::uint64_t>(0x121));
}

TEST(TreeSearch, EraseCleansEmptyAncestors) {
    TreeFixture f;
    f.tree.insert(0x500);
    f.tree.erase(0x500);
    // All nodes on the path must be empty again.
    EXPECT_EQ(f.tree.node_word(0, 0), 0u);
    EXPECT_EQ(f.tree.node_word(1, 0x5), 0u);
    EXPECT_EQ(f.tree.node_word(2, 0x50), 0u);
}

TEST(TreeSearch, EraseStopsAtSharedAncestor) {
    TreeFixture f;
    f.tree.insert(0x500);
    f.tree.insert(0x510);
    f.tree.erase(0x500);
    // Level-1 node of 0x5 still has the 0x51 path.
    EXPECT_NE(f.tree.node_word(1, 0x5), 0u);
    EXPECT_NE(f.tree.node_word(0, 0), 0u);
    EXPECT_TRUE(f.tree.contains(0x510));
}

TEST(TreeSearch, InsertThroughFullSixtyFourWayNodeKeepsSiblings) {
    // Regression: a completely full 64-way node reads as the all-ones word,
    // which used to collide with the insert write-back's in-band "level not
    // visited" sentinel — one insert whose walk deviated *below* the full
    // node rewrote it as a single fresh bit, orphaning the other 63
    // subtrees. Only reachable at branching 64 (the paper's 16-way words
    // top out at 0xFFFF), so drive the wide-32 geometry directly.
    TreeFixture f(TreeGeometry::wide32());
    // Fill level-3 node [0,0,0]: 64 markers, one per child, leaf value 5.
    for (std::uint64_t k = 0; k < 64; ++k)
        f.tree.insert((k << 12) | 5);
    ASSERT_EQ(f.tree.node_word(3, 0), ~std::uint64_t{0});
    // This walk stays exact through the full node (literal 63 is present)
    // and deviates at level 4 (literal 1 vs the stored 0), so levels 4-5
    // get fresh words while level 3 must be left intact.
    f.tree.insert((std::uint64_t{63} << 12) | (1u << 6) | 9);
    EXPECT_EQ(f.tree.node_word(3, 0), ~std::uint64_t{0});
    for (std::uint64_t k = 0; k < 64; ++k)
        EXPECT_TRUE(f.tree.contains((k << 12) | 5)) << "k=" << k;
    EXPECT_EQ(f.tree.closest_leq((std::uint64_t{63} << 12) | 8),
              std::optional<std::uint64_t>((std::uint64_t{63} << 12) | 5));
    EXPECT_EQ(f.tree.marker_count(), 65u);
}

// ------------------------------------------------------- cycle accounting

TEST(TreeTiming, SearchTakesOneCyclePerLevel) {
    TreeFixture f;
    f.tree.insert(5);
    const auto before = f.sim.clock().now();
    f.tree.closest_leq(100);
    EXPECT_EQ(f.sim.clock().now() - before, 3u);  // paper: 3 levels
}

TEST(TreeTiming, SearchAndInsertTakesLevelsPlusWriteback) {
    TreeFixture f;
    const auto before = f.sim.clock().now();
    f.tree.search_and_insert(100);
    // 3 level reads + 1 write-back cycle: together with the translation
    // table this is the paper's 4-cycle tag throughput.
    EXPECT_EQ(f.sim.clock().now() - before, 4u);
}

TEST(TreeTiming, FixedTimeRegardlessOfPopulationOrBackup) {
    TreeFixture f;
    // Empty-ish tree, dense tree, backup-path search: all the same cycles.
    f.tree.insert(1);
    auto t0 = f.sim.clock().now();
    f.tree.closest_leq(4000);
    const auto sparse_cycles = f.sim.clock().now() - t0;

    for (std::uint64_t v = 0; v < 4096; v += 3) f.tree.insert(v);
    t0 = f.sim.clock().now();
    f.tree.closest_leq(4001);
    const auto dense_cycles = f.sim.clock().now() - t0;
    EXPECT_EQ(sparse_cycles, dense_cycles);

    // Force a backup-path search: exact prefix exists but leaf fails.
    TreeFixture g;
    g.tree.insert(0x100);
    g.tree.insert(0x115);
    t0 = g.sim.clock().now();
    const auto r = g.tree.closest_leq(0x112);  // level-2 fail, backup to 0x100
    EXPECT_EQ(r, std::optional<std::uint64_t>(0x100));
    EXPECT_EQ(g.sim.clock().now() - t0, 3u);
}

TEST(TreeTiming, SectorClearIsOneCycle) {
    TreeFixture f;
    for (std::uint64_t v = 0; v < 4096; v += 7) f.tree.insert(v);
    const auto before = f.sim.clock().now();
    f.tree.clear_sector(3);
    EXPECT_EQ(f.sim.clock().now() - before, 1u);
}

// --------------------------------------------------------- sector clear

TEST(TreeSector, ClearsExactlyOneSixteenthOfTheRange) {
    TreeFixture f;
    for (std::uint64_t v = 0; v < 4096; ++v) f.tree.insert(v);
    EXPECT_EQ(f.tree.marker_count(), 4096u);
    f.tree.clear_sector(0);  // values 0..255
    EXPECT_EQ(f.tree.marker_count(), 4096u - 256u);
    EXPECT_FALSE(f.tree.contains(0));
    EXPECT_FALSE(f.tree.contains(255));
    EXPECT_TRUE(f.tree.contains(256));
    EXPECT_FALSE(f.tree.closest_leq(255).has_value());
    EXPECT_EQ(f.tree.closest_leq(300), std::optional<std::uint64_t>(300));
}

TEST(TreeSector, ClearedSectorIsReusable) {
    TreeFixture f;
    f.tree.insert(10);
    f.tree.insert(300);
    f.tree.clear_sector(0);
    EXPECT_FALSE(f.tree.contains(10));
    f.tree.insert(12);
    EXPECT_TRUE(f.tree.contains(12));
    EXPECT_EQ(f.tree.closest_leq(100), std::optional<std::uint64_t>(12));
}

TEST(TreeSector, RejectsOutOfRangeSector) {
    TreeFixture f;
    EXPECT_THROW(f.tree.clear_sector(16), std::invalid_argument);
}

// --------------------------------------------- randomized cross-checks

std::optional<std::uint64_t> reference_closest_leq(const std::set<std::uint64_t>& s,
                                                   std::uint64_t v) {
    auto it = s.upper_bound(v);
    if (it == s.begin()) return std::nullopt;
    return *std::prev(it);
}

class TreeRandomized : public ::testing::TestWithParam<TreeGeometry> {};

TEST_P(TreeRandomized, AgreesWithSetUnderRandomOps) {
    const TreeGeometry geom = GetParam();
    TreeFixture f(geom);
    std::set<std::uint64_t> reference;
    Rng rng(geom.levels * 131 + geom.bits_per_level);
    const std::uint64_t cap = geom.capacity();

    for (int iter = 0; iter < 4000; ++iter) {
        const std::uint64_t v = rng.next_below(cap);
        switch (rng.next_below(3)) {
            case 0: {
                f.tree.insert(v);
                reference.insert(v);
                break;
            }
            case 1: {
                if (!reference.empty()) {
                    // Erase a value that exists (erase of absent aborts).
                    auto it = reference.lower_bound(v);
                    if (it == reference.end()) it = reference.begin();
                    f.tree.erase(*it);
                    reference.erase(it);
                }
                break;
            }
            case 2: {
                EXPECT_EQ(f.tree.closest_leq(v), reference_closest_leq(reference, v))
                    << "query " << v << " levels=" << geom.levels;
                break;
            }
        }
        EXPECT_EQ(f.tree.marker_count(), reference.size());
    }
    // Final sweep: every value agrees.
    for (std::uint64_t v = 0; v < cap; v += 17)
        EXPECT_EQ(f.tree.closest_leq(v), reference_closest_leq(reference, v));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TreeRandomized,
    ::testing::Values(TreeGeometry::paper(),       // 3x4: the silicon
                      TreeGeometry{3, 2},          // Fig. 4/5 toy
                      TreeGeometry{2, 4},          // shallow-wide
                      TreeGeometry{6, 2},          // deep-narrow
                      TreeGeometry::binary(10),    // Table I binary tree
                      TreeGeometry{2, 6},          // 64-bit nodes
                      TreeGeometry{4, 3}),
    [](const ::testing::TestParamInfo<TreeGeometry>& info) {
        return "L" + std::to_string(info.param.levels) + "b" +
               std::to_string(info.param.bits_per_level);
    });

// The tree addresses nodes through per-level shift/width tables built at
// construction; they must agree with TreeGeometry's loop-based literal()
// and node_index() at every level, and the walks built on them must agree
// with std::set — including on the heterogeneous and 32-bit geometries.
class TreeLevelTables : public ::testing::TestWithParam<TreeGeometry> {};

TEST_P(TreeLevelTables, AgreeWithGeometryAddressing) {
    const TreeGeometry geom = GetParam();
    TreeFixture f(geom);
    const std::uint64_t cap = geom.capacity();
    Rng rng(geom.tag_bits() * 7 + geom.levels);
    std::vector<std::uint64_t> values = {0, 1, cap / 2, cap - 2, cap - 1};
    for (int i = 0; i < 500; ++i) values.push_back(rng.next_below(cap));
    for (const std::uint64_t v : values) {
        for (unsigned l = 0; l < geom.levels; ++l) {
            ASSERT_EQ(f.tree.literal(v, l), geom.literal(v, l)) << "v=" << v << " l=" << l;
            ASSERT_EQ(f.tree.node_index(v, l), geom.node_index(v, l))
                << "v=" << v << " l=" << l;
        }
    }
}

TEST_P(TreeLevelTables, WalksAgreeWithSet) {
    const TreeGeometry geom = GetParam();
    TreeFixture f(geom);
    std::set<std::uint64_t> reference;
    const std::uint64_t cap = geom.capacity();
    Rng rng(geom.tag_bits() * 13 + geom.levels);
    // Values cluster around a drifting cursor (siblings, shared ancestors,
    // backup descents) with occasional far jumps across the whole space.
    std::uint64_t cursor = rng.next_below(cap);
    const auto next_value = [&] {
        if (rng.next_bool(0.05)) cursor = rng.next_below(cap);
        return (cursor + rng.next_below(256)) % cap;
    };
    for (int iter = 0; iter < 3000; ++iter) {
        const std::uint64_t v = next_value();
        switch (rng.next_below(3)) {
            case 0: {
                const bool fresh = !reference.contains(v);
                bool planted = !fresh;  // the write-back must overwrite it
                EXPECT_EQ(f.tree.search_and_insert(v, &planted),
                          reference_closest_leq(reference, v))
                    << "v=" << v;
                EXPECT_EQ(planted, fresh) << "v=" << v;
                reference.insert(v);
                break;
            }
            case 1: {
                if (reference.empty()) break;
                auto it = reference.lower_bound(v);
                if (it == reference.end()) it = reference.begin();
                f.tree.erase(*it);
                reference.erase(it);
                break;
            }
            case 2:
                EXPECT_EQ(f.tree.closest_leq(v), reference_closest_leq(reference, v))
                    << "v=" << v;
                break;
        }
        ASSERT_EQ(f.tree.marker_count(), reference.size());
    }
    for (const std::uint64_t v : reference) EXPECT_TRUE(f.tree.contains(v)) << v;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TreeLevelTables,
    ::testing::Values(TreeGeometry::paper(), TreeGeometry::paper_15bit(),
                      TreeGeometry::binary(12), TreeGeometry{8, 4},
                      TreeGeometry::wide32()),
    [](const ::testing::TestParamInfo<TreeGeometry>& info) {
        std::string name = "L" + std::to_string(info.param.levels) + "t" +
                           std::to_string(info.param.tag_bits());
        if (!info.param.uniform()) name += "het";
        return name;
    });

TEST(TreeRandomizedNetlist, NetlistMatcherDrivesTreeIdentically) {
    // Integration: the tree behaves identically when every node match runs
    // through the elaborated select & look-ahead netlist.
    hw::Simulation sim_a, sim_b;
    matcher::BehavioralMatcher behavioral;
    matcher::NetlistMatcher netlist(matcher::MatcherKind::SelectLookahead);
    MultibitTree a({TreeGeometry::paper(), 2}, sim_a, behavioral);
    MultibitTree b({TreeGeometry::paper(), 2}, sim_b, netlist);

    Rng rng(42);
    for (int iter = 0; iter < 800; ++iter) {
        const std::uint64_t v = rng.next_below(4096);
        if (rng.next_bool(0.6)) {
            EXPECT_EQ(a.search_and_insert(v), b.search_and_insert(v));
        } else {
            EXPECT_EQ(a.closest_leq(v), b.closest_leq(v));
        }
    }
}

TEST(TreeStats, TracksSearchesAndLookups) {
    TreeFixture f;
    f.tree.insert(5);
    f.tree.reset_stats();
    f.tree.closest_leq(100);
    f.tree.closest_leq(200);
    EXPECT_EQ(f.tree.stats().searches, 2u);
    // One matcher lookup per level while on the exact path; at least the
    // root is always matched.
    EXPECT_GE(f.tree.stats().node_lookups, 2u);
    EXPECT_EQ(f.tree.stats().worst_node_lookups, 3u);
}

TEST(TreeConfig, RootMustBeRegisters) {
    hw::Simulation sim;
    matcher::BehavioralMatcher m;
    EXPECT_THROW(MultibitTree({TreeGeometry::paper(), 0}, sim, m),
                 std::invalid_argument);
}

}  // namespace
}  // namespace wfqs::tree
