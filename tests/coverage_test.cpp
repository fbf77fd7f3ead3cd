// Third-wave coverage: sorter correctness across non-paper tree
// geometries, matcher netlists across explicit block sizes, packet-buffer
// fragmentation stress, histogram/quantile numerics, and analysis-module
// ordering edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>

#include "analysis/fairness.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/tag_sorter.hpp"
#include "hw/simulation.hpp"
#include "matcher/circuit.hpp"
#include "scheduler/packet_buffer.hpp"

namespace wfqs {
namespace {

// ------------------------------------------- sorter geometry sweep

class SorterGeometry : public ::testing::TestWithParam<tree::TreeGeometry> {};

TEST_P(SorterGeometry, RandomWorkloadMatchesReference) {
    hw::Simulation sim;
    core::TagSorter sorter({GetParam(), 1024, 20}, sim);
    std::map<std::uint64_t, std::deque<std::uint32_t>> ref;
    std::size_t ref_size = 0;
    Rng rng(GetParam().levels * 1000 + GetParam().bits_per_level);
    const std::uint64_t jump = sorter.window_span() / 2;
    for (int iter = 0; iter < 8000; ++iter) {
        if (!sorter.full() && (sorter.empty() || rng.next_bool(0.55))) {
            const std::uint64_t base = sorter.empty() ? 0 : sorter.peek_min()->tag;
            const std::uint64_t tag = base + rng.next_below(jump);
            const auto payload = static_cast<std::uint32_t>(iter & 0xFFFFF);
            sorter.insert(tag, payload);
            ref[tag].push_back(payload);
            ++ref_size;
        } else if (!sorter.empty()) {
            const auto got = sorter.pop_min();
            auto it = ref.begin();
            ASSERT_EQ(got->tag, it->first);
            ASSERT_EQ(got->payload, it->second.front());
            it->second.pop_front();
            if (it->second.empty()) ref.erase(it);
            --ref_size;
        }
        ASSERT_EQ(sorter.size(), ref_size);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SorterGeometry,
    ::testing::Values(tree::TreeGeometry{2, 5},   // shallow, 32-wide nodes
                      tree::TreeGeometry{7, 2},   // deep, 4-wide nodes
                      tree::TreeGeometry{14, 1},  // extreme binary
                      tree::TreeGeometry{4, 4},   // 16-bit tags
                      tree::TreeGeometry{3, 6}),  // 18-bit tags, 64-wide nodes
    [](const ::testing::TestParamInfo<tree::TreeGeometry>& info) {
        std::string name = "L";
        name += std::to_string(info.param.levels);
        name += 'b';
        name += std::to_string(info.param.bits_per_level);
        return name;
    });

// ------------------------------------------- matcher block sweep

class MatcherBlockSweep
    : public ::testing::TestWithParam<std::tuple<matcher::MatcherKind, unsigned>> {};

TEST_P(MatcherBlockSweep, FunctionIndependentOfBlockSize) {
    const auto [kind, block] = GetParam();
    const matcher::MatcherCircuit c = matcher::build_matcher(kind, 16, block);
    for (std::uint64_t word = 0; word < 65536; word += 97) {
        for (unsigned t = 0; t < 16; t += 3) {
            ASSERT_EQ(c.match(word, t), matcher::behavioral_match(word, t, 16))
                << c.name() << " block " << block << " word " << word;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    BlockedKinds, MatcherBlockSweep,
    ::testing::Combine(::testing::Values(matcher::MatcherKind::BlockLookahead,
                                         matcher::MatcherKind::SkipLookahead,
                                         matcher::MatcherKind::SelectLookahead),
                       ::testing::Values(2u, 3u, 5u, 7u, 16u)),
    [](const auto& info) {
        std::string n = matcher::matcher_kind_name(std::get<0>(info.param));
        for (char& ch : n)
            if (!isalnum(static_cast<unsigned char>(ch))) ch = '_';
        return n + "_b" + std::to_string(std::get<1>(info.param));
    });

// ------------------------------------------- packet buffer stress

TEST(PacketBufferStress, FragmentationChurn) {
    scheduler::SharedPacketBuffer buf({64 * 256, 64});  // 256 cells
    Rng rng(31);
    struct Live {
        scheduler::BufferRef ref;
        net::Packet packet;
    };
    const auto cells_of = [](const net::Packet& p) {
        return static_cast<std::size_t>((p.size_bytes + 63) / 64);
    };
    std::vector<Live> live;
    std::size_t cells = 0, peak = 0;
    std::uint64_t id = 0, stores = 0, refused = 0;
    for (int iter = 0; iter < 20000; ++iter) {
        if (rng.next_bool(0.55)) {
            const net::Packet p{id++, static_cast<net::FlowId>(rng.next_below(8)),
                                static_cast<std::uint32_t>(rng.next_range(40, 1500)),
                                rng.next_u64()};
            if (const auto ref = buf.store(p)) {
                live.push_back({*ref, p});
                cells += cells_of(p);
                ++stores;
            } else {
                ++refused;
            }
        } else if (!live.empty()) {
            const std::size_t pick = rng.next_below(live.size());
            ASSERT_EQ(buf.retrieve(live[pick].ref), live[pick].packet);
            cells -= cells_of(live[pick].packet);
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        }
        peak = std::max(peak, cells);
        ASSERT_EQ(buf.stored_packets(), live.size());
        ASSERT_EQ(buf.used_cells(), cells);
        ASSERT_EQ(buf.peak_used_cells(), peak);
        ASSERT_EQ(buf.drops(), refused);
    }
    EXPECT_GT(stores, 5000u);
    EXPECT_GT(refused, 0u);
    // Full cleanup releases every cell.
    for (const auto& l : live) EXPECT_EQ(buf.retrieve(l.ref), l.packet);
    EXPECT_EQ(buf.used_cells(), 0u);
}

TEST(PacketBufferStress, RetrieveInvalidRefAborts) {
    scheduler::SharedPacketBuffer buf({4096, 64});
    EXPECT_DEATH(buf.retrieve(3), "not a stored packet head");
    const auto ref = buf.store({1, 0, 100, 0});
    buf.retrieve(*ref);
    EXPECT_DEATH(buf.retrieve(*ref), "not a stored packet head");  // double free
}

TEST(PacketBufferStress, PeekFreedRefAborts) {
    scheduler::SharedPacketBuffer buf({4096, 64});
    const auto ref = buf.store({1, 0, 100, 0});
    buf.retrieve(*ref);
    EXPECT_DEATH(buf.peek(*ref), "not a stored packet head");
}

TEST(PacketBufferStress, FreedRefIsReusedByALaterStore) {
    scheduler::SharedPacketBuffer buf({4096, 64});
    const net::Packet a{1, 0, 100, 5};
    const net::Packet b{2, 3, 1500, 9};
    const auto ra = buf.store(a);
    ASSERT_TRUE(ra.has_value());
    EXPECT_EQ(buf.retrieve(*ra), a);
    const auto rb = buf.store(b);
    ASSERT_EQ(rb, ra);  // the freed descriptor serves the next store
    EXPECT_EQ(buf.peek(*rb), b);
    EXPECT_EQ(buf.used_cells(), 24u);  // ceil(1500/64), none left from a
    EXPECT_EQ(buf.retrieve(*rb), b);
    EXPECT_EQ(buf.used_cells(), 0u);
    EXPECT_DEATH(buf.retrieve(*ra), "not a stored packet head");
}

// ------------------------------------------- stats numerics

TEST(StatsNumerics, QuantilesOnTinySets) {
    Quantiles q;
    q.add(5.0);
    EXPECT_DOUBLE_EQ(q.quantile(0.0), 5.0);
    EXPECT_DOUBLE_EQ(q.quantile(1.0), 5.0);
    q.add(7.0);
    EXPECT_DOUBLE_EQ(q.quantile(0.5), 6.0);  // interpolated
}

TEST(StatsNumerics, RunningStatsSingleValue) {
    RunningStats s;
    s.add(42.0);
    EXPECT_DOUBLE_EQ(s.mean(), 42.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 42.0);
    EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(StatsNumerics, MergeManyShards) {
    Rng rng(7);
    RunningStats whole;
    std::vector<RunningStats> shards(8);
    for (int i = 0; i < 10000; ++i) {
        const double x = rng.next_normal(3.0, 2.0);
        whole.add(x);
        shards[i % 8].add(x);
    }
    RunningStats merged;
    for (const auto& s : shards) merged.merge(s);
    EXPECT_EQ(merged.count(), whole.count());
    EXPECT_NEAR(merged.mean(), whole.mean(), 1e-9);
    EXPECT_NEAR(merged.variance(), whole.variance(), 1e-6);
}

// ------------------------------------------- analysis edges

TEST(AnalysisEdges, GpsComparisonHandlesUnsortedArrivalInput) {
    // Records arrive in departure order; the GPS replay must re-sort by
    // arrival time internally even when departures invert arrivals.
    std::vector<net::PacketRecord> records;
    records.push_back(
        {net::Packet{0, 0, 125, 2'000'000}, 2'000'000, 3'000'000});  // late arrival, early dep
    records.push_back({net::Packet{1, 0, 125, 0}, 3'000'000, 4'000'000});
    const auto cmp = analysis::compare_with_gps(records, {1}, 1'000'000);
    EXPECT_EQ(cmp.packets, 2u);
    EXPECT_GT(cmp.bound_s, 0.0);
}

TEST(AnalysisEdges, EmptyRecordSets) {
    EXPECT_EQ(analysis::compare_with_gps({}, {1}, 1'000'000).packets, 0u);
    const auto service = analysis::normalized_service({}, {1, 2}, 0, 100);
    EXPECT_EQ(service.size(), 2u);
    EXPECT_DOUBLE_EQ(analysis::jain_fairness_index(service), 1.0);
}

}  // namespace
}  // namespace wfqs
