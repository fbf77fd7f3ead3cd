// Tests for the tag sort/retrieve circuit: ordering correctness against a
// reference multiset, duplicate FIFO order, wraparound over many epochs,
// sector invalidation, fixed-time retrieval, window-discipline contracts,
// and the synthesis model.
#include <gtest/gtest.h>

#include <deque>
#include <map>

#include "common/paged_array.hpp"
#include "common/rng.hpp"
#include "core/synthesis_model.hpp"
#include "core/tag_sorter.hpp"
#include "hw/simulation.hpp"

namespace wfqs::core {
namespace {

struct SorterFixture {
    hw::Simulation sim;
    TagSorter sorter;

    explicit SorterFixture(TagSorter::Config cfg = {}) : sorter(cfg, sim) {}
};

// Reference model: multimap tag -> FIFO payload queue.
class ReferenceSorter {
public:
    void insert(std::uint64_t tag, std::uint32_t payload) {
        by_tag_[tag].push_back(payload);
        ++size_;
    }
    std::optional<SortedTag> pop_min() {
        if (by_tag_.empty()) return std::nullopt;
        auto it = by_tag_.begin();
        const SortedTag r{it->first, it->second.front()};
        it->second.pop_front();
        if (it->second.empty()) by_tag_.erase(it);
        --size_;
        return r;
    }
    std::optional<std::uint64_t> min_tag() const {
        return by_tag_.empty() ? std::nullopt
                               : std::optional<std::uint64_t>(by_tag_.begin()->first);
    }
    std::size_t size() const { return size_; }

private:
    std::map<std::uint64_t, std::deque<std::uint32_t>> by_tag_;
    std::size_t size_ = 0;
};

// ----------------------------------------------------------- basics

TEST(TagSorter, StartsEmpty) {
    SorterFixture f;
    EXPECT_TRUE(f.sorter.empty());
    EXPECT_FALSE(f.sorter.peek_min().has_value());
    EXPECT_FALSE(f.sorter.pop_min().has_value());
}

TEST(TagSorter, SingleInsertPop) {
    SorterFixture f;
    f.sorter.insert(100, 7);
    EXPECT_EQ(f.sorter.size(), 1u);
    const auto min = f.sorter.peek_min();
    ASSERT_TRUE(min.has_value());
    EXPECT_EQ(min->tag, 100u);
    EXPECT_EQ(min->payload, 7u);
    EXPECT_EQ(f.sorter.pop_min(), min);
    EXPECT_TRUE(f.sorter.empty());
}

TEST(TagSorter, SortsOutOfOrderArrivals) {
    SorterFixture f;
    f.sorter.insert(50, 1);
    f.sorter.insert(90, 2);
    f.sorter.insert(60, 3);
    f.sorter.insert(85, 4);
    f.sorter.insert(70, 5);
    std::vector<std::uint64_t> order;
    while (auto t = f.sorter.pop_min()) order.push_back(t->tag);
    EXPECT_EQ(order, (std::vector<std::uint64_t>{50, 60, 70, 85, 90}));
}

TEST(TagSorter, DuplicatesServeFifo) {
    // §III-C: equal tag values are served first-come first-served.
    SorterFixture f;
    f.sorter.insert(10, 1);
    f.sorter.insert(20, 91);
    f.sorter.insert(20, 92);
    f.sorter.insert(20, 93);
    f.sorter.insert(30, 2);
    EXPECT_EQ(f.sorter.pop_min()->payload, 1u);
    EXPECT_EQ(f.sorter.pop_min()->payload, 91u);
    EXPECT_EQ(f.sorter.pop_min()->payload, 92u);
    EXPECT_EQ(f.sorter.pop_min()->payload, 93u);
    EXPECT_EQ(f.sorter.pop_min()->payload, 2u);
    EXPECT_EQ(f.sorter.stats().duplicate_inserts, 2u);
}

TEST(TagSorter, ValueReusableImmediatelyAfterLastDuplicateDeparts) {
    // The refinement the paper leaves implicit: a value whose tags all
    // departed must be insertable again at once without chasing a stale
    // translation entry.
    SorterFixture f;
    f.sorter.insert(10, 1);
    f.sorter.insert(12, 2);
    EXPECT_EQ(f.sorter.pop_min()->tag, 10u);
    EXPECT_EQ(f.sorter.stats().marker_retirements, 1u);
    f.sorter.insert(10, 3);  // the departed value comes straight back
    EXPECT_EQ(f.sorter.pop_min()->payload, 3u);
    EXPECT_EQ(f.sorter.pop_min()->payload, 2u);
}

TEST(TagSorter, StrictModeRejectsUndercut) {
    // Paper-exact discipline: tags below the minimum throw.
    SorterFixture f({tree::TreeGeometry::paper(), 4096, 24, true});
    f.sorter.insert(100, 1);
    f.sorter.insert(150, 2);
    f.sorter.pop_min();  // min now 150
    EXPECT_THROW(f.sorter.insert(149, 3), std::invalid_argument);
    EXPECT_NO_THROW(f.sorter.insert(150, 3));  // equal to min is legal
}

TEST(TagSorter, RelaxedModeAcceptsUndercutAsNewMinimum) {
    // Real WFQ can emit a tag below the current minimum (fresh high-weight
    // flow); the relaxed sorter makes it the new head.
    SorterFixture f;
    f.sorter.insert(100, 1);
    f.sorter.insert(150, 2);
    f.sorter.pop_min();
    f.sorter.insert(120, 3);  // undercuts min 150
    EXPECT_EQ(f.sorter.stats().head_undercuts, 1u);
    EXPECT_EQ(f.sorter.peek_min()->tag, 120u);
    EXPECT_EQ(f.sorter.pop_min()->payload, 3u);
    EXPECT_EQ(f.sorter.pop_min()->payload, 2u);
}

TEST(TagSorter, UndercutViaCombinedOp) {
    SorterFixture f;
    f.sorter.insert(100, 1);
    f.sorter.insert(150, 2);
    f.sorter.pop_min();
    const SortedTag popped = f.sorter.insert_and_pop(120, 3);
    EXPECT_EQ(popped.tag, 150u);
    EXPECT_EQ(f.sorter.peek_min()->tag, 120u);
}

TEST(TagSorter, InsertBeyondWindowThrows) {
    SorterFixture f;
    f.sorter.insert(0, 1);
    // Window = range - one sector = 4096 - 256 = 3840.
    EXPECT_EQ(f.sorter.window_span(), 3840u);
    EXPECT_NO_THROW(f.sorter.insert(3839, 2));
    EXPECT_THROW(f.sorter.insert(3840, 3), std::invalid_argument);
}

TEST(TagSorter, OverflowThrowsBeforeMutation) {
    SorterFixture f({tree::TreeGeometry::paper(), 4, 24});
    for (int i = 0; i < 4; ++i) f.sorter.insert(10 + i, i);
    EXPECT_TRUE(f.sorter.full());
    EXPECT_THROW(f.sorter.insert(20, 9), std::overflow_error);
    // The failed insert must not have corrupted anything.
    EXPECT_EQ(f.sorter.size(), 4u);
    EXPECT_EQ(f.sorter.pop_min()->tag, 10u);
}

// ------------------------------------------------------ combined op

TEST(TagSorter, CombinedInsertPop) {
    SorterFixture f;
    f.sorter.insert(10, 1);
    f.sorter.insert(30, 3);
    const SortedTag popped = f.sorter.insert_and_pop(20, 2);
    EXPECT_EQ(popped.tag, 10u);
    EXPECT_EQ(popped.payload, 1u);
    EXPECT_EQ(f.sorter.pop_min()->tag, 20u);
    EXPECT_EQ(f.sorter.pop_min()->tag, 30u);
}

TEST(TagSorter, CombinedWithNewTagBecomingMinimum) {
    SorterFixture f;
    f.sorter.insert(10, 1);
    f.sorter.insert(30, 3);
    // New tag 12 goes directly behind the departing 10.
    const SortedTag popped = f.sorter.insert_and_pop(12, 2);
    EXPECT_EQ(popped.tag, 10u);
    EXPECT_EQ(f.sorter.peek_min()->tag, 12u);
}

TEST(TagSorter, CombinedWithEqualTag) {
    SorterFixture f;
    f.sorter.insert(10, 1);
    f.sorter.insert(30, 3);
    const SortedTag popped = f.sorter.insert_and_pop(10, 2);  // same value back in
    EXPECT_EQ(popped.payload, 1u);
    EXPECT_EQ(f.sorter.peek_min()->tag, 10u);
    EXPECT_EQ(f.sorter.pop_min()->payload, 2u);
    EXPECT_EQ(f.sorter.pop_min()->tag, 30u);
}

TEST(TagSorter, CombinedOnSingleton) {
    SorterFixture f;
    f.sorter.insert(10, 1);
    const SortedTag popped = f.sorter.insert_and_pop(11, 2);
    EXPECT_EQ(popped.tag, 10u);
    EXPECT_EQ(f.sorter.size(), 1u);
    EXPECT_EQ(f.sorter.peek_min()->tag, 11u);
}

TEST(TagSorter, CombinedWorksWhenFull) {
    // §IV: the combined op needs no free slot — it reuses the departing one.
    SorterFixture f({tree::TreeGeometry::paper(), 3, 24});
    f.sorter.insert(1, 1);
    f.sorter.insert(2, 2);
    f.sorter.insert(3, 3);
    EXPECT_TRUE(f.sorter.full());
    const SortedTag popped = f.sorter.insert_and_pop(4, 4);
    EXPECT_EQ(popped.tag, 1u);
    EXPECT_TRUE(f.sorter.full());
    EXPECT_EQ(f.sorter.size(), 3u);
}

// ------------------------------------------------------- timing claims

TEST(TagSorterTiming, RetrievalIsFixedTimeRegardlessOfOccupancy) {
    // The sort-model claim of §II-C: serving the smallest tag depends only
    // on the storage-memory access, not on a lookup.
    SorterFixture f;
    f.sorter.insert(1, 0);
    f.sorter.insert(2, 0);
    auto t0 = f.sim.clock().now();
    f.sorter.pop_min();
    const auto small_occupancy_cycles = f.sim.clock().now() - t0;

    SorterFixture g;
    for (std::uint64_t v = 0; v < 3000; ++v) g.sorter.insert(v, 0);
    t0 = g.sim.clock().now();
    g.sorter.pop_min();
    const auto large_occupancy_cycles = g.sim.clock().now() - t0;
    EXPECT_EQ(small_occupancy_cycles, large_occupancy_cycles);
}

TEST(TagSorterTiming, PeekMinIsZeroCycles) {
    SorterFixture f;
    f.sorter.insert(5, 0);
    const auto t0 = f.sim.clock().now();
    for (int i = 0; i < 100; ++i) f.sorter.peek_min();
    EXPECT_EQ(f.sim.clock().now(), t0);
}

TEST(TagSorterTiming, InsertLatencyIsBounded) {
    // Sequential latency: 4 tree/translation cycles + 4 list cycles (+1
    // rare wrap fallback). The pipelined initiation interval is 4 — see
    // DESIGN.md §5 and the line-rate bench.
    SorterFixture f;
    Rng rng(3);
    std::uint64_t tag = 0;
    for (int i = 0; i < 500; ++i) {
        tag += rng.next_below(5);
        if (f.sorter.full()) break;
        f.sorter.insert(tag, 0);
    }
    EXPECT_LE(f.sorter.stats().worst_insert_cycles, 12u);
}

TEST(TagSorterTiming, CombinedOpStaysInCycleBudget) {
    SorterFixture f;
    f.sorter.insert(0, 0);
    std::uint64_t tag = 0;
    Rng rng(4);
    for (int i = 0; i < 2000; ++i) {
        tag += rng.next_below(4);
        f.sorter.insert_and_pop(tag, 0);
    }
    EXPECT_LE(f.sorter.stats().worst_insert_cycles, 14u);
}

// -------------------------------------------------- wraparound epochs

TEST(TagSorterWrap, SurvivesManyValueSpaceWraps) {
    // Push tags far beyond the 12-bit range: the window slides through the
    // value space many times; sector invalidation recycles the tree.
    SorterFixture f;
    ReferenceSorter ref;
    Rng rng(11);
    std::uint64_t vtime = 0;
    for (int iter = 0; iter < 30000; ++iter) {
        const bool do_insert =
            !f.sorter.full() && (f.sorter.empty() || rng.next_bool(0.5));
        if (do_insert) {
            // New tags land between the current minimum and +1000 ahead.
            const std::uint64_t base =
                f.sorter.empty() ? vtime : f.sorter.peek_min()->tag;
            const std::uint64_t tag = base + rng.next_below(1000);
            const auto payload = static_cast<std::uint32_t>(iter & 0xFFFFFF);
            f.sorter.insert(tag, payload);
            ref.insert(tag, payload);
            vtime = std::max(vtime, tag);
        } else {
            const auto got = f.sorter.pop_min();
            const auto expected = ref.pop_min();
            ASSERT_EQ(got.has_value(), expected.has_value());
            ASSERT_EQ(got->tag, expected->tag) << "iteration " << iter;
            ASSERT_EQ(got->payload, expected->payload) << "iteration " << iter;
        }
        ASSERT_EQ(f.sorter.size(), ref.size());
    }
    EXPECT_GT(vtime, 8u * 4096u);  // at least 8 full wraps exercised
    EXPECT_GT(f.sorter.stats().sector_invalidations, 50u);
}

TEST(TagSorterWrap, DenseDuplicatesAcrossTheSeam) {
    SorterFixture f;
    ReferenceSorter ref;
    Rng rng(13);
    // Park the window right below the wrap seam, then stream duplicates
    // over it.
    std::uint64_t base = 4000;
    f.sorter.insert(base, 0);
    ref.insert(base, 0);
    for (int iter = 0; iter < 4000; ++iter) {
        if (!f.sorter.full() && rng.next_bool(0.6)) {
            const std::uint64_t tag = f.sorter.peek_min()->tag + rng.next_below(3);
            const auto payload = static_cast<std::uint32_t>(iter);
            f.sorter.insert(tag, payload);
            ref.insert(tag, payload);
        } else if (!f.sorter.empty()) {
            const auto got = f.sorter.pop_min();
            const auto expected = ref.pop_min();
            ASSERT_EQ(got->tag, expected->tag);
            ASSERT_EQ(got->payload, expected->payload);
        }
    }
}

// The tiered translation table's bulk tier is host bookkeeping that must
// follow the live values: a page (and then its directory block) is freed
// with its last valid entry, at no cycle and no access. The step does not
// divide 2^32, so every lap touches fresh pages: kept ones would grow with
// every lap.
TEST(TagSorterWrap, Wide32LapsKeepTheBulkTierBounded) {
    TagSorter::Config cfg;
    cfg.geometry = tree::TreeGeometry::wide32();
    cfg.capacity = 16;
    SorterFixture f(cfg);
    ASSERT_TRUE(f.sorter.table().tiered());
    const PagedArray<std::uint64_t>& bulk = f.sorter.table().bulk_tier();
    const std::uint64_t range = std::uint64_t{1} << 32;
    const std::uint64_t step = (std::uint64_t{1} << 24) + 4099;
    std::uint64_t tag = 0;
    f.sorter.insert(tag, 0);
    std::uint64_t peak_pages = 0;
    for (int lap = 0; lap < 5; ++lap) {
        for (std::uint64_t end = tag + range; tag < end;) {
            tag += step;
            f.sorter.insert(tag, 1);
            ASSERT_EQ(f.sorter.pop_min()->tag, tag - step);
            peak_pages = std::max(peak_pages, bulk.allocated_pages());
        }
        ASSERT_TRUE(f.sorter.audit().clean());
    }
    EXPECT_EQ(f.sorter.stats().sector_invalidations, 5u * cfg.geometry.branching());
    EXPECT_EQ(peak_pages, 1u);  // sampled after each pop: one live value
}

// --------------------------------------------- randomized equivalence

struct RandomParams {
    std::uint64_t seed;
    std::size_t capacity;
    unsigned max_jump;  ///< how far ahead of the minimum new tags may land
};

class TagSorterRandomized : public ::testing::TestWithParam<RandomParams> {};

TEST_P(TagSorterRandomized, MatchesReferenceUnderRandomWorkload) {
    const auto [seed, capacity, max_jump] = GetParam();
    SorterFixture f({tree::TreeGeometry::paper(), capacity, 24});
    ReferenceSorter ref;
    Rng rng(seed);
    for (int iter = 0; iter < 12000; ++iter) {
        const int op = static_cast<int>(rng.next_below(10));
        if (op < 5 && !f.sorter.full()) {
            const std::uint64_t base = f.sorter.empty()
                                           ? 1000
                                           : f.sorter.peek_min()->tag;
            const std::uint64_t tag = base + rng.next_below(max_jump);
            const auto payload = static_cast<std::uint32_t>(rng.next_below(1 << 24));
            f.sorter.insert(tag, payload);
            ref.insert(tag, payload);
        } else if (op < 8) {
            ASSERT_EQ(f.sorter.pop_min(), ref.pop_min()) << "iter " << iter;
        } else if (!f.sorter.empty()) {
            const std::uint64_t tag = f.sorter.peek_min()->tag + rng.next_below(max_jump);
            const auto payload = static_cast<std::uint32_t>(rng.next_below(1 << 24));
            const SortedTag popped = f.sorter.insert_and_pop(tag, payload);
            const auto expected = ref.pop_min();
            ref.insert(tag, payload);
            ASSERT_TRUE(expected.has_value());
            ASSERT_EQ(popped.tag, expected->tag) << "iter " << iter;
            ASSERT_EQ(popped.payload, expected->payload) << "iter " << iter;
        }
        // The head register always matches the reference minimum.
        const auto min = f.sorter.peek_min();
        const auto ref_min = ref.min_tag();
        ASSERT_EQ(min.has_value(), ref_min.has_value());
        if (min) {
            ASSERT_EQ(min->tag, *ref_min);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, TagSorterRandomized,
    ::testing::Values(RandomParams{1, 4096, 500},    // roomy, moderate spread
                      RandomParams{2, 4096, 3500},   // spread close to window limit
                      RandomParams{3, 64, 200},      // tight memory
                      RandomParams{4, 4096, 2},      // heavy duplicates
                      RandomParams{5, 16, 3800},     // tiny memory, wild spread
                      RandomParams{6, 4096, 50}),
    [](const ::testing::TestParamInfo<RandomParams>& info) {
        return "seed" + std::to_string(info.param.seed) + "_cap" +
               std::to_string(info.param.capacity) + "_jump" +
               std::to_string(info.param.max_jump);
    });

// --------------------------------------------------------- geometry

TEST(TagSorterGeometry, FifteenBitVariant) {
    // §III-A: widening the nodes to cover 15-bit words is supported at the
    // cost of a 32-k translation table.
    hw::Simulation sim;
    TagSorter sorter({tree::TreeGeometry::paper_15bit(), 1024, 24}, sim);
    EXPECT_EQ(sorter.table().entries(), 32768u);
    sorter.insert(30000, 1);
    sorter.insert(30010, 2);
    sorter.insert(30005, 3);
    EXPECT_EQ(sorter.pop_min()->payload, 1u);
    EXPECT_EQ(sorter.pop_min()->payload, 3u);
    EXPECT_EQ(sorter.pop_min()->payload, 2u);
}

TEST(TagSorterGeometry, BinaryTreeVariantWorks) {
    hw::Simulation sim;
    TagSorter sorter({tree::TreeGeometry::binary(12), 256, 24}, sim);
    sorter.insert(100, 1);
    sorter.insert(50, 2);
    EXPECT_EQ(sorter.pop_min()->tag, 50u);
    EXPECT_EQ(sorter.pop_min()->tag, 100u);
}

TEST(TagSorterGeometry, DeepTreeOpsLandInFiniteHistogramBins) {
    // Regression: the cycle histograms used to be hard-coded to
    // {0.0, 32.0, 32}, so an 8-level tree (up to 8 cycles of tree work per
    // level, plus the tiered-table miss penalty) clipped every slow op into
    // the clamped last bin. The range is now derived from the geometry.
    TagSorter::Config deep;
    deep.geometry = tree::TreeGeometry::heterogeneous({4, 4, 4, 4, 4, 4, 4, 4});
    deep.capacity = 256;
    deep.table_hot_bits = 4;  // tiny hot cache: force bulk-tier misses
    const std::size_t bins = TagSorter::hist_bins(deep);
    EXPECT_GT(bins, 32u);                             // deeper than the paper's span
    EXPECT_EQ(TagSorter::hist_bins({}), 32u);         // paper geometry unchanged

    hw::Simulation sim;
    TagSorter sorter(deep, sim);
    Rng rng(97);
    std::uint64_t base = 0;
    for (int i = 0; i < 400; ++i) {
        if (!sorter.full() && (sorter.empty() || rng.next_bool(0.6))) {
            // Scatter inserts across the live window so the matched
            // predecessor is a cold value — each one stalls on the bulk tier.
            const std::uint64_t min = sorter.empty() ? base : sorter.peek_min()->tag;
            sorter.insert(min + rng.next_below(std::uint64_t{1} << 27),
                          static_cast<std::uint32_t>(i));
        } else if (const auto popped = sorter.pop_min()) {
            base = popped->tag;
        }
    }
    // Every op must land in a real bin; the clamped last bin stays empty.
    EXPECT_LT(sorter.stats().worst_insert_cycles, bins - 1);
    EXPECT_LT(sorter.stats().worst_pop_cycles, bins - 1);
    EXPECT_EQ(sorter.insert_cycles().bins().bin(bins - 1), 0u);
    EXPECT_EQ(sorter.pop_cycles().bins().bin(bins - 1), 0u);
    // The whole point of the wider range: some op was slower than the old
    // 32-cycle ceiling would have been able to represent.
    EXPECT_GT(sorter.stats().worst_insert_cycles, 31u);
}

TEST(TagSorterGeometry, NetlistMatcherEndToEnd) {
    hw::Simulation sim;
    matcher::NetlistMatcher engine(matcher::MatcherKind::SelectLookahead);
    TagSorter sorter({tree::TreeGeometry::paper(), 512, 24}, sim, engine);
    Rng rng(21);
    ReferenceSorter ref;
    for (int i = 0; i < 600; ++i) {
        if (!sorter.full() && rng.next_bool(0.6)) {
            const std::uint64_t base = sorter.empty() ? 0 : sorter.peek_min()->tag;
            const std::uint64_t tag = base + rng.next_below(300);
            sorter.insert(tag, static_cast<std::uint32_t>(i));
            ref.insert(tag, static_cast<std::uint32_t>(i));
        } else {
            ASSERT_EQ(sorter.pop_min(), ref.pop_min());
        }
    }
}

// ------------------------------------------------------ synthesis model

TEST(SynthesisModel, ReproducesTableIIShape) {
    const SynthesisReport r =
        synthesize({tree::TreeGeometry::paper(), std::size_t{1} << 20, 24},
                   matcher::MatcherKind::SelectLookahead);
    // Memory structure matches §III-A.
    EXPECT_EQ(r.tree_memory_bits, 4368u);
    EXPECT_EQ(r.matcher_count, 3u);
    // Paper §IV: >35.8 Mpps and 40 Gb/s at 140-byte packets; the clock in
    // 130-nm must land in the 100-250 MHz window the paper implies.
    EXPECT_GE(r.clock_mhz, 100.0);
    EXPECT_LE(r.clock_mhz, 300.0);
    EXPECT_GE(r.mpps, 30.0);
    EXPECT_GE(r.gbps_at_140B, 35.0);
    // Area is memory-dominated (the layout's eight translation blocks).
    EXPECT_GT(r.memory_area_mm2, r.logic_area_mm2);
    EXPECT_GT(r.total_power_mw, 0.0);
}

TEST(SynthesisModel, FormatsAsTable) {
    const SynthesisReport r =
        synthesize({tree::TreeGeometry::paper(), 4096, 24},
                   matcher::MatcherKind::SelectLookahead);
    const std::string text = format_synthesis_report(r);
    EXPECT_NE(text.find("clock (MHz)"), std::string::npos);
    EXPECT_NE(text.find("line rate @140B"), std::string::npos);
}

TEST(SynthesisModel, SelectMatcherGivesFastestClock) {
    const TagSorter::Config cfg{tree::TreeGeometry::paper(), 4096, 24};
    const double select =
        synthesize(cfg, matcher::MatcherKind::SelectLookahead).clock_mhz;
    for (const auto kind : matcher::all_matcher_kinds()) {
        if (kind == matcher::MatcherKind::SelectLookahead) continue;
        EXPECT_GE(select, synthesize(cfg, kind).clock_mhz)
            << matcher::matcher_kind_name(kind);
    }
}

}  // namespace
}  // namespace wfqs::core
