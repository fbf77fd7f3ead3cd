// Unit tests for src/common: bit helpers, fixed point, RNG, statistics,
// the table formatter and the paged sparse array.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "common/bits.hpp"
#include "common/fixed_point.hpp"
#include "common/paged_array.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace wfqs {
namespace {

// ---------------------------------------------------------------- bits

TEST(Bits, LowMask) {
    EXPECT_EQ(low_mask(0), 0u);
    EXPECT_EQ(low_mask(1), 1u);
    EXPECT_EQ(low_mask(4), 0xFu);
    EXPECT_EQ(low_mask(64), ~std::uint64_t{0});
}

TEST(Bits, ExtractLiteral) {
    // 12-bit value 0xABC split into three 4-bit literals, level 0 = MSB.
    EXPECT_EQ(extract_literal(0xABC, 0, 4, 3), 0xAu);
    EXPECT_EQ(extract_literal(0xABC, 1, 4, 3), 0xBu);
    EXPECT_EQ(extract_literal(0xABC, 2, 4, 3), 0xCu);
}

TEST(Bits, ExtractLiteralBinary) {
    // 6-bit value as three 2-bit literals: 110101 -> 11, 01, 01.
    EXPECT_EQ(extract_literal(0b110101, 0, 2, 3), 0b11u);
    EXPECT_EQ(extract_literal(0b110101, 1, 2, 3), 0b01u);
    EXPECT_EQ(extract_literal(0b110101, 2, 2, 3), 0b01u);
}

TEST(Bits, ReplaceLiteral) {
    EXPECT_EQ(replace_literal(0xABC, 1, 4, 3, 0x5), 0xA5Cu);
    EXPECT_EQ(replace_literal(0x000, 0, 4, 3, 0xF), 0xF00u);
}

TEST(Bits, HighestSetAtOrBelow) {
    EXPECT_EQ(highest_set_at_or_below(0b0000, 3), -1);
    EXPECT_EQ(highest_set_at_or_below(0b0100, 3), 2);
    EXPECT_EQ(highest_set_at_or_below(0b0100, 2), 2);
    EXPECT_EQ(highest_set_at_or_below(0b0100, 1), -1);
    EXPECT_EQ(highest_set_at_or_below(0b1011, 3), 3);
    EXPECT_EQ(highest_set_at_or_below(~std::uint64_t{0}, 63), 63);
}

TEST(Bits, HighestSetBelow) {
    EXPECT_EQ(highest_set_below(0b1011, 3), 1);
    EXPECT_EQ(highest_set_below(0b1011, 1), 0);
    EXPECT_EQ(highest_set_below(0b1011, 0), -1);
}

TEST(Bits, HighestLowestSet) {
    EXPECT_EQ(highest_set(0), -1);
    EXPECT_EQ(lowest_set(0), -1);
    EXPECT_EQ(highest_set(0b1010), 3);
    EXPECT_EQ(lowest_set(0b1010), 1);
}

TEST(Bits, SetClearBit) {
    EXPECT_EQ(set_bit(0, 5), 32u);
    EXPECT_EQ(clear_bit(0xFF, 0), 0xFEu);
    EXPECT_TRUE(bit_is_set(0x10, 4));
    EXPECT_FALSE(bit_is_set(0x10, 3));
}

TEST(Bits, CeilDiv) {
    EXPECT_EQ(ceil_div(10, 3), 4u);
    EXPECT_EQ(ceil_div(9, 3), 3u);
    EXPECT_EQ(ceil_div(1, 100), 1u);
}

TEST(Bits, Log2Exact) {
    EXPECT_EQ(log2_exact(1), 0u);
    EXPECT_EQ(log2_exact(16), 4u);
    EXPECT_EQ(log2_exact(std::uint64_t{1} << 40), 40u);
}

// ---------------------------------------------------------------- fixed

TEST(Fixed, RoundTripInt) {
    EXPECT_EQ(Fixed::from_int(42).floor(), 42u);
    EXPECT_DOUBLE_EQ(Fixed::from_int(42).to_double(), 42.0);
}

TEST(Fixed, Ratio) {
    const Fixed half = Fixed::ratio(1, 2);
    EXPECT_DOUBLE_EQ(half.to_double(), 0.5);
    const Fixed third = Fixed::ratio(1, 3);
    EXPECT_NEAR(third.to_double(), 1.0 / 3.0, 1e-9);
}

TEST(Fixed, Arithmetic) {
    const Fixed a = Fixed::from_int(3);
    const Fixed b = Fixed::ratio(1, 4);
    EXPECT_DOUBLE_EQ((a + b).to_double(), 3.25);
    EXPECT_DOUBLE_EQ((a - b).to_double(), 2.75);
    EXPECT_LT(b, a);
}

TEST(Fixed, MulRatio) {
    // 1000 * 1500 / 8  (a packet of 1500 bits at weight 8)
    const Fixed v = Fixed::from_int(1000).mul_ratio(1500, 8);
    EXPECT_DOUBLE_EQ(v.to_double(), 187500.0);
}

TEST(Fixed, MaxMin) {
    const Fixed a = Fixed::from_int(1);
    const Fixed b = Fixed::from_int(2);
    EXPECT_EQ(max(a, b), b);
    EXPECT_EQ(min(a, b), a);
}

// ---------------------------------------------------------------- rng

TEST(Rng, Deterministic) {
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next_u64() == b.next_u64()) ++same;
    EXPECT_EQ(same, 0);
}

TEST(Rng, BoundedIsBounded) {
    Rng r(7);
    for (int i = 0; i < 10000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

TEST(Rng, RangeIsInclusive) {
    Rng r(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) seen.insert(r.next_range(5, 8));
    EXPECT_EQ(seen.size(), 4u);
    EXPECT_EQ(*seen.begin(), 5u);
    EXPECT_EQ(*seen.rbegin(), 8u);
}

TEST(Rng, DoubleInUnitInterval) {
    Rng r(11);
    for (int i = 0; i < 10000; ++i) {
        const double d = r.next_double();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, ExponentialMean) {
    Rng r(13);
    RunningStats s;
    for (int i = 0; i < 200000; ++i) s.add(r.next_exponential(4.0));
    EXPECT_NEAR(s.mean(), 4.0, 0.1);
}

TEST(Rng, ParetoMinimum) {
    Rng r(17);
    for (int i = 0; i < 10000; ++i) EXPECT_GE(r.next_pareto(1.5, 2.0), 2.0);
}

TEST(Rng, NormalMoments) {
    Rng r(19);
    RunningStats s;
    for (int i = 0; i < 200000; ++i) s.add(r.next_normal(10.0, 3.0));
    EXPECT_NEAR(s.mean(), 10.0, 0.1);
    EXPECT_NEAR(s.stddev(), 3.0, 0.1);
}

TEST(Rng, WeightedRespectsWeights) {
    Rng r(23);
    std::vector<double> w = {1.0, 0.0, 3.0};
    std::vector<int> counts(3, 0);
    for (int i = 0; i < 40000; ++i) ++counts[r.next_weighted(w)];
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
}

// ---------------------------------------------------------------- stats

TEST(RunningStats, Basics) {
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
}

TEST(RunningStats, Merge) {
    RunningStats a, b, whole;
    for (int i = 0; i < 50; ++i) {
        const double x = i * 0.7 - 3;
        whole.add(x);
        (i % 2 == 0 ? a : b).add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), whole.count());
    EXPECT_NEAR(a.mean(), whole.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), whole.min());
    EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(RunningStats, MergeWithEmpty) {
    RunningStats a, empty;
    a.add(5.0);
    a.merge(empty);
    EXPECT_EQ(a.count(), 1u);
    empty.merge(a);
    EXPECT_EQ(empty.count(), 1u);
    EXPECT_DOUBLE_EQ(empty.mean(), 5.0);
}

TEST(RunningStats, MergeEmptyWithEmpty) {
    RunningStats a, b;
    a.merge(b);
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_DOUBLE_EQ(a.min(), 0.0);
    EXPECT_DOUBLE_EQ(a.max(), 0.0);
    // The merged-into accumulator must still work afterwards.
    a.add(3.0);
    EXPECT_EQ(a.count(), 1u);
    EXPECT_DOUBLE_EQ(a.mean(), 3.0);
}

TEST(RunningStats, MergeAgreesWithSinglePass) {
    Rng r(29);
    RunningStats parts[4], whole;
    for (int i = 0; i < 4000; ++i) {
        const double x = r.next_normal(2.0, 5.0);
        whole.add(x);
        parts[i % 4].add(x);
    }
    RunningStats merged;
    for (const auto& p : parts) merged.merge(p);
    EXPECT_EQ(merged.count(), whole.count());
    EXPECT_NEAR(merged.mean(), whole.mean(), 1e-9);
    EXPECT_NEAR(merged.variance(), whole.variance(), 1e-6);
    EXPECT_DOUBLE_EQ(merged.min(), whole.min());
    EXPECT_DOUBLE_EQ(merged.max(), whole.max());
}

TEST(Quantiles, MedianAndTails) {
    Quantiles q;
    for (int i = 1; i <= 101; ++i) q.add(i);
    EXPECT_DOUBLE_EQ(q.quantile(0.5), 51.0);
    EXPECT_DOUBLE_EQ(q.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(q.quantile(1.0), 101.0);
    EXPECT_NEAR(q.quantile(0.99), 100.0, 1.0);
}

TEST(Quantiles, InterpolatesBetweenSamples) {
    // rank = q * (n - 1), linear between neighbours.
    Quantiles q;
    q.add(10.0);
    q.add(20.0);
    EXPECT_DOUBLE_EQ(q.quantile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(q.quantile(0.25), 12.5);
    EXPECT_DOUBLE_EQ(q.quantile(0.5), 15.0);
    EXPECT_DOUBLE_EQ(q.quantile(1.0), 20.0);
}

TEST(Quantiles, SingleSampleEveryQuantile) {
    Quantiles q;
    q.add(7.0);
    EXPECT_DOUBLE_EQ(q.quantile(0.0), 7.0);
    EXPECT_DOUBLE_EQ(q.quantile(0.37), 7.0);
    EXPECT_DOUBLE_EQ(q.quantile(1.0), 7.0);
}

TEST(Histogram, BinningAndClamping) {
    Histogram h(0.0, 10.0, 10);
    h.add(0.5);   // bin 0
    h.add(9.5);   // bin 9
    h.add(-5.0);  // clamps to bin 0
    h.add(50.0);  // clamps to bin 9
    EXPECT_EQ(h.total(), 4u);
    EXPECT_EQ(h.bin(0), 2u);
    EXPECT_EQ(h.bin(9), 2u);
    EXPECT_EQ(h.bin(5), 0u);
    EXPECT_DOUBLE_EQ(h.bin_lo(5), 5.0);
    EXPECT_DOUBLE_EQ(h.bin_hi(5), 6.0);
}

TEST(Histogram, Reset) {
    Histogram h(0.0, 1.0, 4);
    h.add(0.1);
    h.reset();
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.bin(0), 0u);
}

TEST(Histogram, RejectsNaN) {
    // NaN must not clamp into a bin (the comparison chain would otherwise
    // funnel it into the last bin); it lands in a dedicated reject tally.
    Histogram h(0.0, 10.0, 10);
    h.add(std::nan(""));
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.nan_rejects(), 1u);
    for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(h.bin(i), 0u);
    h.add(2.5);
    h.add(std::nan(""));
    EXPECT_EQ(h.total(), 1u);
    EXPECT_EQ(h.nan_rejects(), 2u);
    h.reset();
    EXPECT_EQ(h.nan_rejects(), 0u);
}

TEST(Histogram, AsciiBarsShape) {
    Histogram h(0.0, 3.0, 3);
    h.add(0.5);
    h.add(1.5);
    h.add(1.6);
    const std::string bars = h.ascii_bars(2);
    // Two rows of three columns plus newlines.
    EXPECT_EQ(bars.size(), 8u);
}

// ---------------------------------------------------------------- table

TEST(TextTable, RendersAligned) {
    TextTable t({"name", "value"});
    t.add_row({"alpha", "1"});
    t.add_row({"b", "12345"});
    const std::string out = t.render();
    EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
    EXPECT_NE(out.find("| b     | 12345 |"), std::string::npos);
}

TEST(TextTable, RejectsWrongArity) {
    TextTable t({"a", "b"});
    EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TextTable, NumFormatting) {
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::num(std::uint64_t{42}), "42");
    EXPECT_EQ(TextTable::num(std::int64_t{-7}), "-7");
}

// ---------------------------------------------------------- paged array

using Words = PagedArray<std::uint64_t>;
constexpr std::uint64_t kPage = Words::kPageSize;

std::vector<std::pair<std::uint64_t, std::uint64_t>> nonzero(const Words& a, std::uint64_t first,
                                                             std::uint64_t count) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    a.for_each_nonzero(first, count,
                       [&](std::uint64_t i, std::uint64_t v) { out.emplace_back(i, v); });
    return out;
}

TEST(PagedArray, GetAndWriteRoundTrip) {
    Words a(10 * kPage + 5);  // the last page is trimmed to 5 entries
    EXPECT_EQ(a.get(3 * kPage + 1), 0u);
    a.set(3 * kPage + 1, 11);
    a[10 * kPage + 4] = 22;  // last entry of the trimmed page
    a[3 * kPage + 2] ^= 0x30;
    EXPECT_EQ(a.get(3 * kPage + 1), 11u);
    EXPECT_EQ(a.get(3 * kPage + 2), 0x30u);
    EXPECT_EQ(a.get(10 * kPage + 4), 22u);
    EXPECT_EQ(a.get(3 * kPage), 0u);
    EXPECT_EQ(a.get(4 * kPage + 1), 0u);  // untouched neighbour page
    EXPECT_EQ(a.allocated_pages(), 2u);
    a.set(7 * kPage, 0);  // a zero into an absent page allocates nothing
    EXPECT_EQ(a.allocated_pages(), 2u);
    a.set(3 * kPage + 1, 0);  // ...but lands in a present one
    EXPECT_EQ(a.get(3 * kPage + 1), 0u);
}

TEST(PagedArray, ClearRangeZeroesPartialPagesAndFreesFullOnes) {
    Words a(8 * kPage);
    for (std::uint64_t p = 0; p < 8; ++p) {
        a.set(p * kPage, p + 1);
        a.set(p * kPage + kPage - 1, p + 100);
    }
    ASSERT_EQ(a.allocated_pages(), 8u);
    // From the middle of page 1 through the middle of page 4: pages 2 and 3
    // are covered whole and freed; pages 1 and 4 are zeroed in place.
    a.clear_range(kPage + 1, 3 * kPage);
    EXPECT_EQ(a.allocated_pages(), 6u);
    EXPECT_EQ(a.get(kPage), 2u);             // before the range
    EXPECT_EQ(a.get(2 * kPage - 1), 0u);     // inside, partial page
    EXPECT_EQ(a.get(2 * kPage), 0u);         // inside, freed page
    EXPECT_EQ(a.get(4 * kPage), 0u);         // inside, partial page
    EXPECT_EQ(a.get(5 * kPage - 1), 104u);   // after the range
    a.clear_range(0, 0);
    EXPECT_EQ(a.allocated_pages(), 6u);
    a.clear();
    EXPECT_EQ(a.allocated_pages(), 0u);
    EXPECT_TRUE(nonzero(a, 0, a.size()).empty());
    a.set(5, 1);  // a cleared array takes writes again
    EXPECT_EQ(a.get(5), 1u);
    EXPECT_EQ(a.allocated_pages(), 1u);
}

TEST(PagedArray, EraseFreesAPageWithItsLastNonzeroEntry) {
    Words a(4 * kPage + 3);
    a.set(kPage + 1, 5);
    a.set(kPage + 9, 6);
    a.set(4 * kPage + 2, 7);  // in the trimmed last page
    ASSERT_EQ(a.allocated_pages(), 2u);
    a.erase(kPage + 1);
    EXPECT_EQ(a.allocated_pages(), 2u);  // kPage + 9 still lives there
    EXPECT_EQ(a.get(kPage + 1), 0u);
    EXPECT_EQ(a.get(kPage + 9), 6u);
    a.erase(kPage + 9);
    EXPECT_EQ(a.allocated_pages(), 1u);
    a.erase(3 * kPage);  // an entry of an absent page is already zero
    a.erase(4 * kPage + 2);
    EXPECT_EQ(a.allocated_pages(), 0u);
    EXPECT_TRUE(nonzero(a, 0, a.size()).empty());
    a.set(kPage + 9, 8);  // freed pages and blocks come back on the next write
    EXPECT_EQ(a.get(kPage + 9), 8u);
    EXPECT_EQ(a.allocated_pages(), 1u);
}

TEST(PagedArray, ForEachNonzeroIsAscendingAndRangeBound) {
    Words a(std::uint64_t{1} << 24);
    const std::vector<std::uint64_t> at = {9, kPage, 5 * kPage + 3, (std::uint64_t{1} << 22) + 7,
                                           (std::uint64_t{1} << 24) - 1};
    for (auto it = at.rbegin(); it != at.rend(); ++it) a.set(*it, *it + 1);  // written descending
    a.set(kPage + 1, 0);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> want;
    for (const std::uint64_t i : at) want.emplace_back(i, i + 1);
    EXPECT_EQ(nonzero(a, 0, a.size()), want);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> all;
    a.for_each_nonzero([&](std::uint64_t i, std::uint64_t v) { all.emplace_back(i, v); });
    EXPECT_EQ(all, want);
    // [10, 5 * kPage + 3) stops just short of the third entry.
    EXPECT_EQ(nonzero(a, 10, 5 * kPage - 7),
              (std::vector<std::pair<std::uint64_t, std::uint64_t>>{{kPage, kPage + 1}}));
    EXPECT_EQ(nonzero(a, 10, 5 * kPage - 6).size(), 2u);
    EXPECT_EQ(nonzero(a, 5 * kPage + 3, 1).size(), 1u);
}

TEST(PagedArray, FullThirtyTwoBitSpaceAllocatesOnlyOnWrite) {
    Words a(std::uint64_t{1} << 32);
    EXPECT_EQ(a.allocated_pages(), 0u);
    EXPECT_EQ(a.get(0), 0u);
    EXPECT_EQ(a.get(0xFFFF'FFFFull), 0u);
    EXPECT_TRUE(nonzero(a, 0, a.size()).empty());
    EXPECT_EQ(a.allocated_pages(), 0u);
    a.set(0xFFFF'FFFFull, 7);
    EXPECT_EQ(a.allocated_pages(), 1u);
    EXPECT_EQ(a.get(0xFFFF'FFFFull), 7u);
    Words moved(std::move(a));  // moves keep the pages, not copies of them
    EXPECT_EQ(moved.get(0xFFFF'FFFFull), 7u);
    EXPECT_EQ(moved.allocated_pages(), 1u);
    moved.clear_range(std::uint64_t{1} << 31, std::uint64_t{1} << 31);
    EXPECT_EQ(moved.allocated_pages(), 0u);
    EXPECT_EQ(moved.get(0xFFFF'FFFFull), 0u);
}

}  // namespace
}  // namespace wfqs
