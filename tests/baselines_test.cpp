// Tests for the Table I baseline structures: every queue kind is swept
// against a reference model under a shared monotone-window workload, plus
// structure-specific behaviours (heap stability, calendar resize, CAM
// sweep costs, TCAM probe bound, binning inexactness, vEB duplicates),
// and the payload width each sorter-backed queue keeps.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <stdexcept>
#include <vector>

#include "baselines/binning_queue.hpp"
#include "baselines/calendar_queue.hpp"
#include "baselines/cam_queue.hpp"
#include "baselines/factory.hpp"
#include "baselines/heap_queue.hpp"
#include "baselines/skiplist_queue.hpp"
#include "baselines/tcq_queue.hpp"
#include "baselines/veb_queue.hpp"
#include "common/rng.hpp"
#include "hw/simulation.hpp"

namespace wfqs::baselines {
namespace {

class ReferenceQueue {
public:
    void insert(std::uint64_t tag, std::uint32_t payload) {
        by_tag_[tag].push_back(payload);
        ++size_;
    }
    std::optional<QueueEntry> pop_min() {
        if (by_tag_.empty()) return std::nullopt;
        auto it = by_tag_.begin();
        const QueueEntry e{it->first, it->second.front()};
        it->second.pop_front();
        if (it->second.empty()) by_tag_.erase(it);
        --size_;
        return e;
    }
    std::size_t size() const { return size_; }

private:
    std::map<std::uint64_t, std::deque<std::uint32_t>> by_tag_;
    std::size_t size_ = 0;
};

// ------------------------------------------------ cross-kind conformance

class QueueConformance : public ::testing::TestWithParam<QueueKind> {};

TEST_P(QueueConformance, MatchesReferenceOnMonotoneWindowWorkload) {
    // Workload mirrors fair-queueing traffic: tags within a bounded window
    // above the current minimum, never exceeding the 12-bit universe.
    auto q = make_tag_queue(GetParam(), {12, 4096});
    ReferenceQueue ref;
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 7 + 1);
    std::uint64_t min_live = 0;
    for (int iter = 0; iter < 5000; ++iter) {
        if (ref.size() < 512 && (ref.size() < 2 || rng.next_bool(0.55))) {
            const std::uint64_t tag =
                std::min<std::uint64_t>(min_live + rng.next_below(600), 4095);
            const auto payload = static_cast<std::uint32_t>(iter);
            q->insert(tag, payload);
            ref.insert(tag, payload);
        } else {
            const auto got = q->pop_min();
            const auto expected = ref.pop_min();
            ASSERT_EQ(got.has_value(), expected.has_value());
            if (got) {
                if (q->exact()) {
                    ASSERT_EQ(got->tag, expected->tag)
                        << q->name() << " iter " << iter;
                    ASSERT_EQ(got->payload, expected->payload)
                        << q->name() << " iter " << iter;
                } else {
                    // Binning: the reference must be told what was really
                    // served so the models stay aligned. Re-sync by
                    // swapping the popped entries.
                    if (got->tag != expected->tag || got->payload != expected->payload) {
                        ref.insert(expected->tag, expected->payload);
                        // Remove `got` from ref by brute force.
                        std::vector<QueueEntry> held;
                        for (;;) {
                            const auto e = ref.pop_min();
                            ASSERT_TRUE(e.has_value()) << "binning served a "
                                                          "tag the reference "
                                                          "does not hold";
                            if (e->tag == got->tag && e->payload == got->payload) break;
                            held.push_back(*e);
                        }
                        for (const auto& e : held) ref.insert(e.tag, e.payload);
                    }
                }
                min_live = std::max(min_live, got->tag);
            }
        }
        ASSERT_EQ(q->size(), ref.size()) << q->name();
    }
    EXPECT_GT(q->stats().inserts, 1000u);
}

TEST_P(QueueConformance, DrainsCompletely) {
    auto q = make_tag_queue(GetParam(), {12, 4096});
    for (std::uint64_t t = 0; t < 100; ++t) q->insert(t * 3 % 256, 0);
    std::size_t popped = 0;
    while (q->pop_min()) ++popped;
    EXPECT_EQ(popped, 100u);
    EXPECT_TRUE(q->empty());
    EXPECT_FALSE(q->peek_min().has_value());
}

TEST_P(QueueConformance, StatsTrackOperations) {
    auto q = make_tag_queue(GetParam(), {12, 64});
    q->insert(5, 0);
    q->insert(9, 0);
    q->pop_min();
    EXPECT_EQ(q->stats().inserts, 2u);
    EXPECT_EQ(q->stats().pops, 1u);
    EXPECT_GT(q->stats().accesses_total, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, QueueConformance,
                         ::testing::ValuesIn(all_queue_kinds()),
                         [](const ::testing::TestParamInfo<QueueKind>& info) {
                             std::string n = queue_kind_name(info.param);
                             for (char& c : n)
                                 if (!isalnum(static_cast<unsigned char>(c))) c = '_';
                             return n;
                         });

// A slot budget that does not divide evenly must round *up* per bank —
// the aggregate never shrinks below the requested capacity. 100 tags over
// 4 banks land 25 per bank; ceil(100/4)=25 holds them, floor(97/4)=24
// would overflow a bank.
TEST(Factory, ShardedCapacityRoundsUpPerBank) {
    auto q = make_tag_queue(QueueKind::MultibitTree, {12, 97, 4});
    for (std::uint64_t t = 0; t < 100; ++t)
        ASSERT_NO_THROW(q->insert(t, 0)) << "tag " << t;
    for (std::uint64_t t = 0; t < 100; ++t) EXPECT_EQ(q->pop_min()->tag, t);
}

// --------------------------------------------------- structure-specific

TEST(HeapQueue, EqualTagsServeFifo) {
    HeapTagQueue h;
    h.insert(7, 1);
    h.insert(7, 2);
    h.insert(7, 3);
    EXPECT_EQ(h.pop_min()->payload, 1u);
    EXPECT_EQ(h.pop_min()->payload, 2u);
    EXPECT_EQ(h.pop_min()->payload, 3u);
}

TEST(HeapQueue, AccessesGrowLogarithmically) {
    HeapTagQueue h;
    Rng rng(1);
    for (int i = 0; i < 4096; ++i) h.insert(rng.next_below(1 << 20), 0);
    h.reset_stats();
    for (int i = 0; i < 512; ++i) h.pop_min();
    // log2(4096) = 12 levels; each sift-down step costs ~4 accesses.
    EXPECT_GE(h.stats().worst_pop_accesses, 12u);
    EXPECT_LE(h.stats().worst_pop_accesses, 80u);
}

TEST(SkiplistQueue, HandlesReverseSortedInserts) {
    SkiplistQueue s;
    for (std::uint64_t t = 100; t-- > 0;) s.insert(t, static_cast<std::uint32_t>(t));
    for (std::uint64_t t = 0; t < 100; ++t) EXPECT_EQ(s.pop_min()->tag, t);
}

TEST(CalendarQueue, ResizesUnderGrowth) {
    CalendarQueue c(8, 4);
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) c.insert(rng.next_below(100000), 0);
    EXPECT_GT(c.resizes(), 0u);
    EXPECT_GE(c.bucket_count(), 500u);
    std::uint64_t prev = 0;
    while (auto e = c.pop_min()) {
        EXPECT_GE(e->tag, prev);
        prev = e->tag;
    }
}

TEST(CalendarQueue, ResizeCostIsAttributedToTheTriggeringInsert) {
    // Brown's copy operation (maybe_resize) used to run *outside* the
    // insert's OpScope, so its per-entry touches inflated accesses_total
    // without ever registering in worst_insert_accesses — hiding the O(n)
    // spike that is the calendar's Table I liability. The resize must bill
    // to the insert that triggered it, and the access ledger must close:
    // every touch recorded between the op counters' deltas.
    CalendarQueue c(8, 4);
    // 16 entries on 8 buckets: one below the 2n growth trigger.
    for (std::uint64_t t = 0; t < 16; ++t) c.insert(t * 3, 0);
    ASSERT_EQ(c.resizes(), 0u);
    c.reset_stats();

    const std::uint64_t before_total = c.stats().accesses_total;
    c.insert(100, 1);  // 17 > 2*8: triggers the copy operation
    ASSERT_EQ(c.resizes(), 1u);
    const std::uint64_t insert_cost = c.stats().accesses_total - before_total;

    // The copy touches all 17 live entries on top of the insert proper,
    // and the worst-insert tracker must now carry the whole bill.
    EXPECT_GE(insert_cost, 17u);
    EXPECT_EQ(c.stats().worst_insert_accesses, insert_cost);
    EXPECT_EQ(c.stats().inserts, 1u);
}

TEST(CalendarQueue, WorstCaseClusterDegradesAccesses) {
    // All tags in one bucket, then one far away: the calendar must walk an
    // empty year — the O(N)-ish worst case Table I records.
    CalendarQueue c(64, 1);
    for (int i = 0; i < 32; ++i) c.insert(5, static_cast<std::uint32_t>(i));
    c.insert(100000, 99);
    while (c.size() > 1) c.pop_min();
    c.reset_stats();
    EXPECT_EQ(c.pop_min()->tag, 100000u);
    EXPECT_GT(c.stats().worst_pop_accesses, 32u);
}

TEST(TcqQueue, ScanBoundIsTwoSqrtRange) {
    TcqQueue t(12);  // sqrt bound: 64 + 64
    t.insert(4095, 1);  // worst position: last day, last slot
    t.reset_stats();
    EXPECT_EQ(t.pop_min()->tag, 4095u);
    EXPECT_LE(t.stats().worst_pop_accesses, 2u * 64u + 2u);
    EXPECT_GE(t.stats().worst_pop_accesses, 64u);
}

TEST(TcqQueue, FifoWithinValue) {
    TcqQueue t(12);
    t.insert(9, 1);
    t.insert(9, 2);
    EXPECT_EQ(t.pop_min()->payload, 1u);
    EXPECT_EQ(t.pop_min()->payload, 2u);
}

TEST(BinningQueue, IsInexactWithinBin) {
    // 64 bins over 4096 values: 64 values per bin. Insert a larger tag
    // first; binning serves it first — the §II-B inaccuracy.
    BinningQueue b(12, 64);
    EXPECT_FALSE(b.exact());
    b.insert(63, 1);  // bin 0, arrives first
    b.insert(10, 2);  // bin 0, smaller tag, arrives second
    const auto first = b.pop_min();
    EXPECT_EQ(first->tag, 63u);  // wrong order — by design
}

TEST(BinningQueue, ExactAcrossBins) {
    BinningQueue b(12, 64);
    b.insert(500, 1);
    b.insert(10, 2);
    EXPECT_EQ(b.pop_min()->tag, 10u);  // different bins: order holds
}

TEST(BinaryCamQueue, SweepCostsGrowWithValueGap) {
    BinaryCamQueue cam(12);
    cam.insert(4000, 1);
    cam.reset_stats();
    cam.pop_min();
    // Probing from 0 up to 4000: the Table I O(R) behaviour.
    EXPECT_GE(cam.stats().worst_pop_accesses, 4000u);
}

TEST(BinaryCamQueue, SweepHintMakesMonotonePopsCheap) {
    BinaryCamQueue cam(12);
    for (std::uint64_t v = 1000; v < 1010; ++v) cam.insert(v, 0);
    cam.pop_min();  // pays the sweep to 1000
    cam.reset_stats();
    for (int i = 0; i < 9; ++i) cam.pop_min();
    EXPECT_LE(cam.stats().worst_pop_accesses, 4u);
}

TEST(TcamQueue, ProbesBoundedByWordWidth) {
    TcamQueue tcam(12);
    Rng rng(5);
    for (int i = 0; i < 200; ++i) tcam.insert(rng.next_below(4096), 0);
    tcam.reset_stats();
    while (tcam.pop_min()) {
    }
    // W probes + 1 invalidation write per pop.
    EXPECT_LE(tcam.stats().worst_pop_accesses, 13u);
    EXPECT_GE(tcam.stats().worst_pop_accesses, 12u);
}

TEST(VebQueue, LogLogAccessBound) {
    VebQueue veb(16);
    Rng rng(7);
    for (int i = 0; i < 2000; ++i) veb.insert(rng.next_below(1 << 16), 0);
    veb.reset_stats();
    for (int i = 0; i < 500; ++i) veb.pop_min();
    // Recursion depth for u=16: 16 -> 8 -> 4 -> 2 -> 1 (5 node levels);
    // erase may touch two chains plus the per-op constant.
    EXPECT_LE(veb.stats().worst_pop_accesses, 24u);
}

TEST(VebQueue, DuplicatesAndSparseUniverse) {
    VebQueue veb(12);
    veb.insert(5, 1);
    veb.insert(5, 2);
    veb.insert(4090, 3);
    EXPECT_EQ(veb.pop_min()->payload, 1u);
    EXPECT_EQ(veb.pop_min()->payload, 2u);
    EXPECT_EQ(veb.pop_min()->tag, 4090u);
    EXPECT_TRUE(veb.empty());
}

TEST(BoundedQueues, RejectOutOfRangeTags) {
    EXPECT_THROW(TcqQueue(12).insert(4096, 0), std::invalid_argument);
    EXPECT_THROW(BinningQueue(12, 64).insert(4096, 0), std::invalid_argument);
    EXPECT_THROW(BinaryCamQueue(12).insert(4096, 0), std::invalid_argument);
    EXPECT_THROW(TcamQueue(12).insert(4096, 0), std::invalid_argument);
    EXPECT_THROW(VebQueue(12).insert(4096, 0), std::invalid_argument);
}

TEST(QueueModels, SortVsSearchClassification) {
    // §II-C: the tree conforms to the sort model; CAM/TCAM/binning/TCQ are
    // search-model structures.
    EXPECT_EQ(make_tag_queue(QueueKind::MultibitTree)->model(), "sort");
    EXPECT_EQ(make_tag_queue(QueueKind::Heap)->model(), "sort");
    EXPECT_EQ(make_tag_queue(QueueKind::BinaryCam)->model(), "search");
    EXPECT_EQ(make_tag_queue(QueueKind::Tcam)->model(), "search");
    EXPECT_EQ(make_tag_queue(QueueKind::Binning)->model(), "search");
    EXPECT_EQ(make_tag_queue(QueueKind::Tcq)->model(), "search");
}

TEST(QueueAccessComparison, MultibitTreeBeatsSearchModelWorstCase) {
    // The headline of Table I: the multi-bit tree's worst-case accesses
    // per operation beat binary CAM and binning by orders of magnitude.
    const QueueParams params{12, 4096};
    auto run = [&](QueueKind kind) {
        auto q = make_tag_queue(kind, params);
        Rng rng(99);
        std::uint64_t min_live = 0;
        for (int i = 0; i < 2000; ++i) {
            if (q->size() < 256 && (q->empty() || rng.next_bool(0.55))) {
                q->insert(std::min<std::uint64_t>(min_live + rng.next_below(700), 4095),
                          0);
            } else if (const auto e = q->pop_min()) {
                min_live = std::max(min_live, e->tag);
            }
        }
        return std::max(q->stats().worst_insert_accesses,
                        q->stats().worst_pop_accesses);
    };
    const auto tree_worst = run(QueueKind::MultibitTree);
    EXPECT_LT(tree_worst, run(QueueKind::BinaryCam) / 10);
    EXPECT_LT(tree_worst, run(QueueKind::SortedList) / 5);
}

// ---------------------------------------------------------------------------
// Payload width

// The model queue packs the payload into an 18-bit field at 32-bit tags
// over 8,192 slots: a wider payload is refused before any state changes.
// At the paper's 12-bit tree the field is the full 32 bits. The ffs
// queue keeps all 32 bits at any width.
TEST(PayloadWidth, ModelQueueRefusesWidePayloadIntact) {
    auto q = make_tag_queue(QueueKind::MultibitTree, {32, 8192});
    q->insert(3, (1u << 18) - 1);
    const QueueStats before = q->stats();
    const std::uint64_t cycles = q->simulation()->clock().now();
    EXPECT_THROW(q->insert(5, 1u << 20), std::out_of_range);
    EXPECT_THROW(q->insert(5, 0xFFFF'FFFFu), std::out_of_range);
    EXPECT_EQ(q->size(), 1u);
    EXPECT_EQ(q->stats().inserts, before.inserts);
    EXPECT_EQ(q->stats().accesses_total, before.accesses_total);
    EXPECT_EQ(q->simulation()->clock().now(), cycles);
    q->insert(5, 7);
    EXPECT_EQ(q->pop_min(), (QueueEntry{3, (1u << 18) - 1}));
    EXPECT_EQ(q->pop_min(), (QueueEntry{5, 7}));

    auto paper = make_tag_queue(QueueKind::MultibitTree, {12, 8192});
    paper->insert(5, 0xFFFF'FFFFu);
    EXPECT_EQ(paper->pop_min(), (QueueEntry{5, 0xFFFF'FFFFu}));
}

TEST(PayloadWidth, FfsQueueKeepsAll32Bits) {
    QueueParams params{32, 8192};
    params.backend = SorterBackend::kFfs;
    auto q = make_tag_queue(QueueKind::MultibitTree, params);
    q->insert(5, 1u << 20);
    q->insert(6, 0xFFFF'FFFFu);
    EXPECT_EQ(q->pop_min(), (QueueEntry{5, 1u << 20}));
    EXPECT_EQ(q->pop_min(), (QueueEntry{6, 0xFFFF'FFFFu}));
}

// A refused insert is not an insert: the op bracket must not count it, on
// either backend, whichever precondition refuses it.
TEST(QueueStatsOnRefusal, RefusedInsertsCountNothing) {
    for (const auto backend : {SorterBackend::kModel, SorterBackend::kFfs}) {
        SCOPED_TRACE(backend_name(backend));
        QueueParams params{12, 4};  // range 4096, window span 3840
        params.backend = backend;
        auto q = make_tag_queue(QueueKind::MultibitTree, params);
        const auto expect_unchanged = [&](const QueueStats& before) {
            EXPECT_EQ(q->stats().inserts, before.inserts);
            EXPECT_EQ(q->stats().accesses_total, before.accesses_total);
            EXPECT_EQ(q->stats().worst_insert_accesses, before.worst_insert_accesses);
        };
        q->insert(10, 1);
        q->insert(11, 2);
        const QueueStats before_window = q->stats();
        EXPECT_THROW(q->insert(10 + 4000, 3), std::invalid_argument);
        expect_unchanged(before_window);
        q->insert(12, 3);
        q->insert(13, 4);
        const QueueStats before_full = q->stats();
        EXPECT_THROW(q->insert(14, 5), std::overflow_error);
        expect_unchanged(before_full);
        EXPECT_EQ(q->size(), 4u);
        EXPECT_EQ(q->stats().inserts, 4u);
    }
}

}  // namespace
}  // namespace wfqs::baselines
