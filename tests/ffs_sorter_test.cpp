// FfsSorter unit and conformance tests: edge geometries the bitmap has
// to get right (single-level trees, branching that is not a multiple of
// the 64-bit word, wrap-window boundaries, full-capacity spill), the
// search primitives against a std::set reference, the head register's
// undercut, combined-op and seam cases, audit detection of
// hand-planted corruption, the committed regression corpus through the
// three-way differ, and the ffs-backed TagQueue in lockstep with the
// cycle-modeled one.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <set>
#include <vector>

#include "baselines/factory.hpp"
#include "common/rng.hpp"
#include "core/ffs_sorter.hpp"
#include "proptest/differ.hpp"
#include "proptest/proptest.hpp"

#ifndef WFQS_CORPUS_DIR
#error "WFQS_CORPUS_DIR must point at tests/corpus"
#endif

namespace wfqs {
namespace {

using core::FfsSorter;

FfsSorter::Config make_config(unsigned levels, unsigned bits,
                              std::size_t capacity) {
    FfsSorter::Config cfg;
    cfg.geometry = tree::TreeGeometry{levels, bits};
    cfg.capacity = capacity;
    return cfg;
}

// The geometries whose leaf bitmaps stress the word math: range 16 fits
// in a quarter word, range 64 is exactly one word, range 512 is a
// multi-word single summary, and the wide/deep entries exercise several
// summary levels.
const std::vector<FfsSorter::Config>& edge_configs() {
    static const std::vector<FfsSorter::Config> configs = {
        make_config(1, 4, 8),    // single-level: range 16, sector size 1
        make_config(1, 6, 16),   // single level, exactly one leaf word
        make_config(2, 3, 32),   // range 64: one leaf word, branching 8
        make_config(3, 3, 64),   // range 512: 8 leaf words, one summary
        make_config(5, 2, 64),   // deep binary-ish: range 1024
        make_config(3, 5, 128),  // wide: range 32768, three levels
    };
    return configs;
}

TEST(FfsSorter, SortsAcrossEdgeGeometries) {
    for (const auto& cfg : edge_configs()) {
        FfsSorter s(cfg);
        Rng rng(0xFF5 + cfg.geometry.levels * 31 + cfg.geometry.bits_per_level);
        const std::uint64_t span = s.window_span();
        std::vector<std::uint64_t> tags;
        for (std::size_t i = 0; i < s.capacity(); ++i)
            tags.push_back(rng.next_below(span));
        for (std::size_t i = 0; i < tags.size(); ++i)
            s.insert(tags[i], static_cast<std::uint32_t>(i) & 0xFFFF);
        std::sort(tags.begin(), tags.end());
        for (const std::uint64_t expected : tags) {
            const auto popped = s.pop_min();
            ASSERT_TRUE(popped.has_value());
            EXPECT_EQ(popped->tag, expected)
                << "geometry " << cfg.geometry.levels << "x"
                << cfg.geometry.bits_per_level;
        }
        EXPECT_TRUE(s.empty());
    }
}

TEST(FfsSorter, DuplicatesPopInFifoOrder) {
    for (const auto& cfg : edge_configs()) {
        FfsSorter s(cfg);
        // Three duplicates of one value interleaved with neighbours.
        s.insert(3, 100);
        s.insert(3, 101);
        s.insert(2, 50);
        s.insert(3, 102);
        EXPECT_EQ(s.pop_min()->payload, 50u);
        EXPECT_EQ(s.pop_min()->payload, 100u);
        EXPECT_EQ(s.pop_min()->payload, 101u);
        EXPECT_EQ(s.pop_min()->payload, 102u);
        EXPECT_EQ(s.stats().duplicate_inserts, 2u);
    }
}

TEST(FfsSorter, WindowBoundaryInserts) {
    for (const auto& cfg : edge_configs()) {
        FfsSorter s(cfg);
        const std::uint64_t span = s.window_span();
        s.insert(10, 1);
        // The widest legal stretch: head 10, incoming 10 + span - 1.
        EXPECT_NO_THROW(s.insert(10 + span - 1, 2));
        // One further stretches the live window to span — rejected.
        EXPECT_THROW(s.insert(10 + span, 3), std::invalid_argument);
        EXPECT_EQ(s.size(), 2u);
        // Popping the head slides the window; the same tag now fits.
        EXPECT_EQ(s.pop_min()->tag, 10u);
        EXPECT_NO_THROW(s.insert(10 + span, 3));
    }
}

TEST(FfsSorter, WrapWindowBoundaryAcrossSeam) {
    // Logical tags run far past the physical range: the window slides
    // over the wrap seam and physical values alias modulo the range.
    const auto cfg = make_config(3, 3, 64);  // range 512
    FfsSorter s(cfg);
    const std::uint64_t range = std::uint64_t{1} << cfg.geometry.tag_bits();
    const std::uint64_t span = s.window_span();
    std::uint64_t head = range - span / 2;  // stream starting near the seam
    const std::uint64_t last = head + span - 1;
    s.insert(head, 0);
    for (std::uint64_t t = head + 1; t <= last; ++t) {
        SCOPED_TRACE(t);
        ASSERT_NO_THROW(s.insert(t, 9));
        ASSERT_EQ(s.pop_min()->tag, head);
        head = t;
    }
    EXPECT_EQ(s.size(), 1u);
    EXPECT_GT(s.stats().sector_invalidations, 0u);
}

TEST(FfsSorter, FullCapacitySpill) {
    const auto cfg = make_config(2, 3, 8);
    FfsSorter s(cfg);
    for (std::uint64_t i = 0; i < 8; ++i) s.insert(i, static_cast<std::uint32_t>(i));
    EXPECT_TRUE(s.full());
    // Overflow outranks the window check and leaves the state untouched.
    EXPECT_THROW(s.insert(3, 99), std::overflow_error);
    EXPECT_THROW(s.insert(1'000'000, 99), std::overflow_error);
    EXPECT_EQ(s.size(), 8u);
    EXPECT_TRUE(s.audit().clean());
    // The combined op ignores capacity: it reuses the served slot.
    EXPECT_NO_THROW(s.insert_and_pop(4, 7));
    EXPECT_EQ(s.size(), 8u);
    for (std::uint64_t i = 1; i <= 8; ++i) EXPECT_TRUE(s.pop_min().has_value());
    EXPECT_TRUE(s.empty());
}

TEST(FfsSorter, SearchPrimitivesMatchSetReference) {
    for (const auto& cfg : edge_configs()) {
        FfsSorter s(cfg);
        const std::uint64_t range = std::uint64_t{1} << cfg.geometry.tag_bits();
        Rng rng(0x5EED + range);
        std::set<std::uint64_t> live;
        // Grow via inserts (physical == logical while nothing wraps).
        while (live.size() < std::min<std::size_t>(s.capacity() - 1, 48)) {
            const std::uint64_t v = rng.next_below(std::min<std::uint64_t>(
                range, s.window_span()));
            if (live.insert(v).second) s.insert(v, 0);
        }
        // The bitmap holds every live value but the head's...
        std::set<std::uint64_t> ref = live;
        ref.erase(ref.begin());
        const auto check = [&] {
            for (std::uint64_t probe = 0; probe < range; ++probe) {
                const auto geq = s.next_geq(probe);
                const auto it = ref.lower_bound(probe);
                if (it == ref.end()) {
                    EXPECT_FALSE(geq.has_value()) << "probe " << probe;
                } else {
                    ASSERT_TRUE(geq.has_value()) << "probe " << probe;
                    EXPECT_EQ(*geq, *it) << "probe " << probe;
                }
                const auto leq = s.closest_leq(probe);
                auto rit = ref.upper_bound(probe);
                if (rit == ref.begin()) {
                    EXPECT_FALSE(leq.has_value()) << "probe " << probe;
                } else {
                    --rit;
                    ASSERT_TRUE(leq.has_value()) << "probe " << probe;
                    EXPECT_EQ(*leq, *rit) << "probe " << probe;
                }
            }
        };
        check();
        // ...until the head has a queued duplicate.
        s.insert(*live.begin(), 1);
        ref.insert(*live.begin());
        check();
    }
}

// --- the head register --------------------------------------------------

TEST(FfsHeadRegister, UndercutKeepsQueuedDuplicatesFifo) {
    const auto cfg = make_config(3, 3, 32);
    FfsSorter s(cfg);
    s.insert(20, 1);
    s.insert(20, 2);
    s.insert(20, 3);
    s.insert(15, 4);  // undercut: the register's 20/1 rejoins ahead of 20/2
    EXPECT_TRUE(s.audit().clean());
    EXPECT_EQ(s.stats().head_undercuts, 1u);
    EXPECT_EQ(s.stats().duplicate_inserts, 2u);
    for (const std::uint32_t payload : {4u, 1u, 2u, 3u}) {
        const auto popped = s.pop_min();
        ASSERT_TRUE(popped.has_value());
        EXPECT_EQ(popped->payload, payload);
        EXPECT_TRUE(s.audit().clean());
    }
    EXPECT_TRUE(s.empty());
    // The same stream, counters included, against the cycle model.
    using proptest::OpKind;
    const proptest::OpSeq ops = {{OpKind::kInsert, 20}, {OpKind::kInsert, 0},
                                 {OpKind::kInsert, 0},  {OpKind::kInsert, -5},
                                 {OpKind::kPop, 0},     {OpKind::kPop, 0},
                                 {OpKind::kPop, 0},     {OpKind::kPop, 0}};
    proptest::DiffOptions every_op;
    every_op.audit_every = 1;
    EXPECT_EQ(proptest::diff_ffs_sorter(ops, cfg, every_op), std::nullopt);
}

TEST(FfsHeadRegister, CombinedOpOnSingletonAndOnHeadValue) {
    const auto cfg = make_config(3, 3, 32);
    FfsSorter s(cfg);
    s.insert(7, 1);
    // Singleton, larger tag: the register is simply rewritten.
    EXPECT_EQ(s.insert_and_pop(9, 2), (core::SortedTag{7, 1}));
    EXPECT_EQ(s.peek_min(), (core::SortedTag{9, 2}));
    EXPECT_EQ(s.stats().marker_retirements, 1u);
    // Singleton, same value: the marker survives.
    EXPECT_EQ(s.insert_and_pop(9, 3), (core::SortedTag{9, 2}));
    EXPECT_EQ(s.stats().marker_retirements, 1u);
    // Singleton, undercut: the newcomer takes the register.
    EXPECT_EQ(s.insert_and_pop(5, 4), (core::SortedTag{9, 3}));
    EXPECT_EQ(s.peek_min(), (core::SortedTag{5, 4}));
    EXPECT_EQ(s.stats().head_undercuts, 1u);
    EXPECT_EQ(s.size(), 1u);
    EXPECT_TRUE(s.audit().clean());

    // The head's own value with a queued duplicate: the newcomer queues
    // behind it, and neither counts as a duplicate insert nor retires.
    s.insert(5, 5);
    s.insert(12, 6);
    EXPECT_EQ(s.insert_and_pop(5, 7), (core::SortedTag{5, 4}));
    EXPECT_TRUE(s.audit().clean());
    for (const auto want : {core::SortedTag{5, 5}, core::SortedTag{5, 7},
                            core::SortedTag{12, 6}})
        EXPECT_EQ(s.pop_min(), want);
    EXPECT_EQ(s.stats().duplicate_inserts, 1u);

    using proptest::OpKind;
    const proptest::OpSeq ops = {
        {OpKind::kInsert, 7},   {OpKind::kCombined, 2}, {OpKind::kCombined, 0},
        {OpKind::kCombined, -4}, {OpKind::kInsert, 0},  {OpKind::kInsert, 7},
        {OpKind::kCombined, 0}, {OpKind::kPop, 0},      {OpKind::kPop, 0},
        {OpKind::kPop, 0}};
    proptest::DiffOptions every_op;
    every_op.audit_every = 1;
    EXPECT_EQ(proptest::diff_ffs_sorter(ops, cfg, every_op), std::nullopt);
}

TEST(FfsHeadRegister, Wide32PopAcrossTheSeam) {
    FfsSorter::Config cfg;
    cfg.geometry = tree::TreeGeometry::wide32();
    cfg.capacity = 16;
    FfsSorter s(cfg);
    ASSERT_EQ(s.debug_level_count(), 6u);
    const std::uint64_t seam = std::uint64_t{1} << 32;
    const std::vector<std::uint64_t> tags = {seam - 3, seam - 1, seam + 2, seam + 5};
    for (std::size_t i = tags.size(); i-- > 0;)  // arrive in reverse: undercuts
        s.insert(tags[i], static_cast<std::uint32_t>(i));
    // The successor of physical 2^32 - 1 is physical 2, past the seam.
    for (std::size_t i = 0; i < tags.size(); ++i) {
        EXPECT_EQ(s.pop_min(), (core::SortedTag{tags[i], static_cast<std::uint32_t>(i)}));
        EXPECT_TRUE(s.audit().clean());
    }
    EXPECT_EQ(s.stats().sector_invalidations, 1u);  // sector 3 -> sector 0
    EXPECT_TRUE(s.empty());
}

// The bitmap levels free each sector's pages as the head leaves it, so a
// sorter whose head keeps lapping the 2^32 space holds pages only for the
// sectors it has not yet retired. The step does not divide 2^32, so every
// lap writes fresh leaf pages: kept pages would grow with every lap.
TEST(FfsPaging, Wide32LapsKeepTheLevelPagesBounded) {
    FfsSorter::Config cfg;
    cfg.geometry = tree::TreeGeometry::wide32();
    cfg.capacity = 16;
    FfsSorter s(cfg);
    const std::uint64_t range = std::uint64_t{1} << 32;
    const std::uint64_t sector = range / cfg.geometry.branching();
    const std::uint64_t step = (std::uint64_t{1} << 24) + 4099;
    const auto pages = [&] {
        std::uint64_t n = 0;
        for (unsigned l = 0; l < s.debug_level_count(); ++l)
            n += s.debug_level(l).allocated_pages();
        return n;
    };
    // Every value written since the head entered its sector can hold one
    // page per level, plus the one queued entry ahead of it.
    const std::uint64_t bound = s.debug_level_count() * (sector / step + 2);
    std::uint64_t tag = 0;
    s.insert(tag, 0);
    std::uint64_t peak = 0;
    for (int lap = 0; lap < 5; ++lap) {
        for (std::uint64_t end = tag + range; tag < end;) {
            tag += step;
            s.insert(tag, 0);  // queued in the bitmap behind the head
            ASSERT_TRUE(s.pop_min().has_value());
            peak = std::max(peak, pages());
        }
        ASSERT_TRUE(s.audit().clean());
    }
    EXPECT_EQ(s.stats().sector_invalidations, 5u * cfg.geometry.branching());
    EXPECT_LE(peak, bound);
    EXPECT_GT(peak, 0u);
}

// --- integrity: hand-planted corruption via the debug hooks -------------

FfsSorter seeded_sorter() {
    FfsSorter s(make_config(3, 3, 32));  // range 512
    for (std::uint64_t i = 0; i < 24; ++i) s.insert(i * 7 % 200, static_cast<std::uint32_t>(i));
    return s;
}

TEST(FfsSorterIntegrity, CleanAfterChurn) {
    FfsSorter s = seeded_sorter();
    for (int i = 0; i < 10; ++i) s.pop_min();
    const auto report = s.audit();
    EXPECT_TRUE(report.clean());
    EXPECT_EQ(s.stats().audits, 0u) << "clean audits must not count findings";
}

// Each planted corruption must be flagged, with the audit's repairable
// classification intact; the audit is the differ's invariant check, so a
// missed class here is a blind spot there.

TEST(FfsSorterIntegrity, FlagsSummaryBitFlip) {
    FfsSorter s = seeded_sorter();
    ASSERT_GE(s.debug_level_count(), 2u);
    s.debug_level(1)[0] ^= 1;  // flip a summary bit out from under the leaves
    const auto report = s.audit();
    ASSERT_FALSE(report.clean());
    EXPECT_TRUE(report.fully_repairable());
    EXPECT_GE(report.count(fault::IntegrityKind::kTreeInvariant), 1u);
    EXPECT_EQ(s.stats().audits, 1u);
}

TEST(FfsSorterIntegrity, FlagsLeafWithoutChain) {
    FfsSorter s = seeded_sorter();
    s.debug_level(0)[7] |= 1;  // marker for value 448, which has no chain
    const auto report = s.audit();
    ASSERT_FALSE(report.clean());
    EXPECT_TRUE(report.fully_repairable());
    EXPECT_GE(report.count(fault::IntegrityKind::kTranslationMissing), 1u);
}

TEST(FfsSorterIntegrity, FlagsStaleTailAndNodeValue) {
    FfsSorter s(make_config(3, 3, 32));
    s.insert(5, 1);  // the head register
    s.insert(5, 2);
    s.insert(5, 3);  // two-node chain at value 5
    const std::uint32_t head = s.debug_chain_head(5);
    const std::uint32_t tail = s.debug_chain_tail(5);
    ASSERT_NE(head, tail);
    s.debug_set_chain_tail(5, head);  // stale tail: upsets FIFO appends
    s.debug_node_value(tail) = 9;     // and a wrong stored value
    const auto report = s.audit();
    ASSERT_FALSE(report.clean());
    EXPECT_TRUE(report.fully_repairable());
    EXPECT_GE(report.count(fault::IntegrityKind::kBrokenLink), 1u);
    EXPECT_GE(report.count(fault::IntegrityKind::kTagOrder), 1u);
}

TEST(FfsSorterIntegrity, FlagsQueuedEntryBelowHead) {
    FfsSorter s(make_config(3, 3, 32));  // range 512: 8 sectors of 64
    s.insert(5, 1);
    s.insert(9, 2);
    ASSERT_TRUE(s.audit().clean());
    s.debug_head_logical() = 12;  // the queued 9 now lies below the head
    const auto report = s.audit();
    ASSERT_FALSE(report.clean());
    EXPECT_FALSE(report.fully_repairable());
    EXPECT_GE(report.count(fault::IntegrityKind::kTagOrder), 1u);
}

TEST(FfsSorterIntegrity, FlagsSectorOccupancyDrift) {
    FfsSorter s = seeded_sorter();
    auto& occupancy = s.debug_sector_occupancy();
    occupancy[0] += 3;
    const auto report = s.audit();
    ASSERT_FALSE(report.clean());
    EXPECT_TRUE(report.fully_repairable());
    EXPECT_GE(report.count(fault::IntegrityKind::kTreeInvariant), 1u);
}

TEST(FfsSorterIntegrity, FlagsFreeListDamage) {
    FfsSorter s = seeded_sorter();
    s.debug_free_head() = FfsSorter::kNull;  // leak the whole free pool
    const auto report = s.audit();
    ASSERT_FALSE(report.clean());
    EXPECT_TRUE(report.fully_repairable());
    EXPECT_GE(report.count(fault::IntegrityKind::kFreeList), 1u);
}

TEST(FfsSorterIntegrity, FlagsCyclicChainAsUnrepairable) {
    FfsSorter s(make_config(3, 3, 32));
    s.insert(5, 1);
    s.insert(5, 2);
    s.insert(9, 3);
    const std::uint32_t head = s.debug_chain_head(5);
    s.debug_node_next(head) = head;  // self-loop: the list itself is broken
    const auto report = s.audit();
    ASSERT_FALSE(report.clean());
    EXPECT_FALSE(report.fully_repairable());
    EXPECT_GE(report.count(fault::IntegrityKind::kBrokenLink), 1u);
}

TEST(FfsSorterIntegrityDeathTest, PassingAnOccupiedSectorAborts) {
    // A sector the head has passed must be empty (advance_window asserts
    // it instead of scrubbing). Plant a phantom entry in the head's
    // sector, then pop across the sector boundary.
    FfsSorter s(make_config(3, 3, 32));  // range 512: 8 sectors of 64
    s.insert(10, 1);
    s.insert(100, 2);
    s.debug_sector_occupancy()[0] += 1;
    EXPECT_DEATH(s.pop_min(), "sector_occupancy_");
}

// --- the committed regression corpus through the three-way differ -------

std::vector<std::filesystem::path> corpus_files() {
    std::vector<std::filesystem::path> files;
    for (const auto& entry : std::filesystem::directory_iterator(WFQS_CORPUS_DIR))
        if (entry.path().extension() == ".ops") files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    return files;
}

TEST(FfsCorpusReplay, EveryArtifactEveryGeometry) {
    const auto files = corpus_files();
    ASSERT_GE(files.size(), 5u);
    for (const auto& file : files) {
        const proptest::OpSeq ops = proptest::read_ops_file(file.string());
        ASSERT_FALSE(ops.empty()) << file;
        for (const auto& entry : proptest::standard_tag_configs()) {
            const auto err = proptest::diff_ffs_sorter(ops, entry.config);
            EXPECT_EQ(err, std::nullopt)
                << file.filename() << " on " << entry.name << ": " << *err;
        }
    }
}

// --- the ffs TagQueue backend in lockstep with the cycle model ----------

void run_queue_lockstep(std::uint64_t seed) {
    baselines::QueueParams params;
    params.range_bits = 16;
    params.capacity = 2048;
    auto model = baselines::make_tag_queue(baselines::QueueKind::MultibitTree,
                                           params);
    params.backend = baselines::SorterBackend::kFfs;
    auto ffs = baselines::make_tag_queue(baselines::QueueKind::MultibitTree,
                                         params);

    Rng rng(seed);
    std::uint64_t cursor = 0;
    for (int round = 0; round < 200; ++round) {
        // A burst of inserts, then a partial drain.
        const std::size_t burst = 1 + rng.next_below(96);
        for (std::size_t i = 0; i < burst; ++i) {
            cursor += rng.next_below(40);
            const auto payload = static_cast<std::uint32_t>(rng.next_below(1 << 16));
            model->insert(cursor, payload);
            ffs->insert(cursor, payload);
        }
        ASSERT_EQ(model->size(), ffs->size());

        const auto mpeek = model->peek_min();
        const auto fpeek = ffs->peek_min();
        ASSERT_EQ(mpeek.has_value(), fpeek.has_value());
        if (mpeek) {
            EXPECT_EQ(mpeek->tag, fpeek->tag);
            EXPECT_EQ(mpeek->payload, fpeek->payload);
        }

        const std::size_t drain = rng.next_below(static_cast<std::uint64_t>(
            model->size() + 1));
        for (std::size_t i = 0; i < drain; ++i) {
            const auto m = model->pop_min();
            const auto f = ffs->pop_min();
            ASSERT_EQ(m.has_value(), f.has_value());
            if (!m) break;
            ASSERT_EQ(m->tag, f->tag) << "round " << round << " pop " << i;
            ASSERT_EQ(m->payload, f->payload) << "round " << round << " pop " << i;
        }
    }
    // Full drain must agree to the last entry.
    for (;;) {
        const auto m = model->pop_min();
        const auto f = ffs->pop_min();
        ASSERT_EQ(m.has_value(), f.has_value());
        if (!m) break;
        ASSERT_EQ(m->tag, f->tag);
        ASSERT_EQ(m->payload, f->payload);
    }
}

TEST(FfsTagQueue, LockstepSingleBank) { run_queue_lockstep(11); }

// Banks buy modeled cycles; the ffs backend has none, so it has no banked form.
TEST(FfsTagQueue, RejectsBanks) {
    baselines::QueueParams params;
    params.backend = baselines::SorterBackend::kFfs;
    params.num_banks = 4;
    EXPECT_THROW(baselines::make_tag_queue(baselines::QueueKind::MultibitTree, params),
                 std::invalid_argument);
    EXPECT_THROW(baselines::make_tag_queue(baselines::QueueKind::BinaryTree, params),
                 std::invalid_argument);
}

TEST(FfsTagQueue, ReportsBackendName) {
    baselines::QueueParams params;
    params.backend = baselines::SorterBackend::kFfs;
    auto q = baselines::make_tag_queue(baselines::QueueKind::MultibitTree, params);
    EXPECT_NE(q->name().find("[ffs]"), std::string::npos);
    EXPECT_EQ(q->model(), "sort");
    EXPECT_EQ(q->simulation(), nullptr);
    EXPECT_FALSE(q->recover());  // no fault model, so no scrub path
    q->insert(7, 1);
    EXPECT_EQ(q->pop_min()->tag, 7u);
}

TEST(FfsBackendNames, RoundTrip) {
    EXPECT_EQ(baselines::backend_name(baselines::SorterBackend::kModel), "model");
    EXPECT_EQ(baselines::backend_name(baselines::SorterBackend::kFfs), "ffs");
    EXPECT_EQ(baselines::backend_from_name("model"),
              baselines::SorterBackend::kModel);
    EXPECT_EQ(baselines::backend_from_name("ffs"), baselines::SorterBackend::kFfs);
    EXPECT_EQ(baselines::backend_from_name("sram"), std::nullopt);
}

}  // namespace
}  // namespace wfqs
