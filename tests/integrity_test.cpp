// The self-healing layer end to end: TagSorter audit/repair/rebuild, the
// Scrubber escalation ladder, exception-safe inserts, and the two
// corruption edge cases that motivated the integrity surface — a
// translation entry left dangling after a last-duplicate retirement, and
// a cycle poked into the empty list. Memory-level fault mechanics live in
// fault_test.cpp.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "core/tag_sorter.hpp"
#include "fault/errors.hpp"
#include "fault/injector.hpp"
#include "fault/scrubber.hpp"
#include "hw/simulation.hpp"

namespace wfqs {
namespace {

using core::TagSorter;
using fault::IntegrityKind;
using storage::kNullAddr;

TagSorter::Config small_config() {
    TagSorter::Config cfg;
    cfg.capacity = 64;
    return cfg;
}

/// Drain the sorter and require a sorted, complete pop stream.
void expect_drains_sorted(TagSorter& sorter) {
    std::uint64_t prev = 0;
    while (!sorter.empty()) {
        const auto e = sorter.pop_min();
        ASSERT_TRUE(e.has_value());
        EXPECT_GE(e->tag, prev);
        prev = e->tag;
    }
}

TEST(Audit, CleanSorterHasCleanAudit) {
    hw::Simulation sim;
    TagSorter sorter(small_config(), sim);
    for (std::uint64_t t : {10u, 20u, 20u, 35u, 12u})
        sorter.insert(t, 1);
    const auto report = sorter.audit();
    EXPECT_TRUE(report.clean());
    EXPECT_EQ(report.entries_walked, 5u);
    // A clean audit is pure inspection: it must not perturb the stats.
    EXPECT_EQ(sorter.stats().audits, 0u);
}

// The satellite edge case: value 10's last duplicate departs (retiring
// its marker and translation entry), then corruption resurrects the
// translation entry pointing at the freed slot. A later insert of value
// 10 must not chase the dangling pointer once the scrub has run.
TEST(Audit, DanglingTranslationAfterLastDuplicateRetirement) {
    hw::Simulation sim;
    TagSorter sorter(small_config(), sim);
    sorter.insert(10, 1);
    sorter.insert(20, 2);
    const auto freed = sorter.store().head_addr();
    ASSERT_TRUE(sorter.pop_min().has_value());  // value 10 departs entirely

    ASSERT_FALSE(sorter.table().peek(10).has_value())
        << "retirement must drop the translation entry";
    sorter.table().poke(10, freed);  // the corruption under test

    const auto report = sorter.audit();
    ASSERT_FALSE(report.clean());
    EXPECT_EQ(report.count(IntegrityKind::kTranslationDangling), 1u);
    EXPECT_TRUE(report.fully_repairable());

    ASSERT_TRUE(sorter.repair(report));
    EXPECT_TRUE(sorter.audit().clean());
    EXPECT_FALSE(sorter.table().peek(10).has_value());

    sorter.insert(10, 3);  // must take the fresh-insert path, not the pointer
    const auto head = sorter.peek_min();
    ASSERT_TRUE(head.has_value());
    EXPECT_EQ(head->tag, 10u);
    EXPECT_EQ(head->payload, 3u);
    expect_drains_sorted(sorter);
}

// The other satellite edge case: a next pointer poked into the empty
// list makes it cyclic. The audit must see it, the repair must relink,
// and allocation must then survive a fill to capacity.
TEST(Audit, FreeListCycleIsDetectedAndRelinked) {
    hw::Simulation sim;
    TagSorter sorter(small_config(), sim);
    for (std::uint64_t t = 0; t < 8; ++t) sorter.insert(10 + t, 1);
    for (int i = 0; i < 4; ++i) ASSERT_TRUE(sorter.pop_min().has_value());
    ASSERT_GE(sorter.store().empty_list_length(), 4u);

    auto& store = sorter.store();
    const auto first_free = store.empty_head();
    auto slot = store.peek_slot(first_free);
    slot.next = first_free;  // the cycle under test
    store.poke_slot(first_free, slot);

    const auto report = sorter.audit();
    ASSERT_FALSE(report.clean());
    EXPECT_GE(report.count(IntegrityKind::kFreeList), 1u);
    EXPECT_TRUE(report.fully_repairable());

    ASSERT_TRUE(sorter.repair(report));
    EXPECT_TRUE(sorter.audit().clean());

    // Every freed and fresh slot must be allocatable again.
    std::uint64_t tag = 30;
    while (!sorter.full()) sorter.insert(tag++, 2);
    EXPECT_EQ(sorter.size(), sorter.capacity());
    expect_drains_sorted(sorter);
}

TEST(Audit, OrphanedTreeMarkerIsRepairable) {
    hw::Simulation sim;
    TagSorter sorter(small_config(), sim);
    sorter.insert(100, 1);
    sorter.search_tree().set_leaf_marker(250, true);  // no list entry behind it

    const auto report = sorter.audit();
    ASSERT_FALSE(report.clean());
    EXPECT_GE(report.count(IntegrityKind::kTreeInvariant), 1u);
    ASSERT_TRUE(report.fully_repairable());
    ASSERT_TRUE(sorter.repair(report));
    EXPECT_TRUE(sorter.audit().clean());
    EXPECT_FALSE(sorter.search_tree().contains(250));
}

TEST(Audit, BrokenChainIsUnrepairableAndRebuildSalvages) {
    hw::Simulation sim;
    TagSorter sorter(small_config(), sim);
    for (std::uint64_t t : {5u, 6u, 7u, 8u, 9u}) sorter.insert(t, 1);

    // Sever the chain after the second entry.
    auto& store = sorter.store();
    const auto second = store.peek_slot(store.head_addr()).next;
    auto slot = store.peek_slot(second);
    slot.next = 100;  // representable in the next field, but past the 64 slots
    store.poke_slot(second, slot);

    const auto report = sorter.audit();
    ASSERT_FALSE(report.clean());
    EXPECT_FALSE(report.fully_repairable());
    EXPECT_FALSE(sorter.repair(report)) << "repair must refuse unrepairable damage";

    const std::size_t lost = sorter.rebuild();
    EXPECT_EQ(lost, 3u) << "entries beyond the break are unreachable";
    EXPECT_EQ(sorter.size(), 2u);
    EXPECT_EQ(sorter.stats().rebuilds, 1u);
    EXPECT_EQ(sorter.stats().rebuild_recovered, 2u);
    EXPECT_TRUE(sorter.audit().clean());
    expect_drains_sorted(sorter);
}

TEST(Audit, HeadRegisterStoreDivergenceForcesRebuild) {
    hw::Simulation sim;
    TagSorter sorter(small_config(), sim);
    for (std::uint64_t t : {40u, 41u, 44u}) sorter.insert(t, 1);

    // Silently flip the stored head tag (an unprotected-SRAM upset).
    auto& store = sorter.store();
    auto head = store.peek_slot(store.head_addr());
    head.entry.tag ^= 0b100;
    store.poke_slot(store.head_addr(), head);

    const auto report = sorter.audit();
    ASSERT_FALSE(report.clean());
    EXPECT_GE(report.count(IntegrityKind::kTagOrder), 1u);
    EXPECT_FALSE(report.fully_repairable())
        << "a wrong anchor must escalate to rebuild, not repair";

    fault::Scrubber scrubber(sorter);
    const auto outcome = scrubber.scrub();
    EXPECT_EQ(outcome.action, fault::ScrubAction::kRebuilt);
    EXPECT_TRUE(sorter.audit().clean());
    expect_drains_sorted(sorter);
}

// ------------------------------------------------------------- scrubber

TEST(Scrubber, CleanRepairedRebuiltEscalation) {
    hw::Simulation sim;
    TagSorter sorter(small_config(), sim);
    for (std::uint64_t t : {10u, 11u, 12u}) sorter.insert(t, 1);
    fault::Scrubber scrubber(sorter);

    EXPECT_EQ(scrubber.scrub().action, fault::ScrubAction::kClean);

    sorter.search_tree().set_leaf_marker(200, true);
    EXPECT_EQ(scrubber.scrub().action, fault::ScrubAction::kRepaired);

    auto& store = sorter.store();
    auto head = store.peek_slot(store.head_addr());
    head.next = 100;  // out-of-range link, as in BrokenChain above
    store.poke_slot(store.head_addr(), head);
    const auto outcome = scrubber.scrub();
    EXPECT_EQ(outcome.action, fault::ScrubAction::kRebuilt);
    EXPECT_EQ(outcome.entries_lost, 2u);

    EXPECT_EQ(scrubber.stats().scrubs, 3u);
    EXPECT_EQ(scrubber.stats().clean, 1u);
    EXPECT_EQ(scrubber.stats().repaired, 1u);
    EXPECT_EQ(scrubber.stats().rebuilt, 1u);
    EXPECT_EQ(scrubber.stats().entries_lost, 2u);
}

TEST(Scrubber, RelaundersEccStateBeforeJudging) {
    hw::Simulation sim;
    sim.enable_protection(fault::Protection::kSecded);
    TagSorter sorter(small_config(), sim);
    for (std::uint64_t t : {10u, 11u, 12u}) sorter.insert(t, 1);

    // A double flip the datapath would throw on; the content is garbage
    // but the *structure* stays walkable only if relaunder runs first.
    sorter.store().memory().corrupt(sorter.store().head_addr(), 0b11ull << 40);

    fault::Scrubber scrubber(sorter);
    const auto outcome = scrubber.scrub();
    EXPECT_NE(outcome.action, fault::ScrubAction::kClean);
    EXPECT_TRUE(sorter.audit().clean());
    expect_drains_sorted(sorter);
}

// ----------------------------------------------------- exception safety

TEST(InsertSafety, OverflowLeavesStateUntouched) {
    hw::Simulation sim;
    TagSorter sorter(small_config(), sim);
    std::uint64_t tag = 10;
    while (!sorter.full()) sorter.insert(tag++, 1);

    const auto before = sorter.peek_min();
    EXPECT_THROW(sorter.insert(tag, 1), std::overflow_error);
    EXPECT_EQ(sorter.size(), sorter.capacity());
    EXPECT_EQ(sorter.peek_min(), before);
    EXPECT_TRUE(sorter.audit().clean());
    expect_drains_sorted(sorter);
}

TEST(InsertSafety, WindowViolationLeavesStateUntouched) {
    hw::Simulation sim;
    TagSorter sorter(small_config(), sim);
    sorter.insert(100, 1);
    EXPECT_THROW(sorter.insert(100 + sorter.window_span() + 1, 1),
                 std::invalid_argument);
    EXPECT_EQ(sorter.size(), 1u);
    EXPECT_TRUE(sorter.audit().clean());
    sorter.insert(101, 2);  // the sorter must keep working after the throw
    expect_drains_sorted(sorter);
}

TEST(InsertSafety, MidInsertIntegrityThrowRollsBackTheFreshMarker) {
    hw::Simulation sim;
    TagSorter sorter(small_config(), sim);
    sorter.insert(10, 1);
    sorter.insert(30, 2);

    // Corrupt the bridge: value 10's marker will be found by the next
    // search, but its translation entry is gone — the insert throws after
    // the new value's marker was already planted in the tree.
    sorter.table().poke(10, std::nullopt);

    EXPECT_THROW(sorter.insert(20, 3), fault::IntegrityError);
    EXPECT_FALSE(sorter.search_tree().contains(20))
        << "the failed insert must take its fresh marker back out";
    EXPECT_EQ(sorter.size(), 2u);

    // The pre-existing corruption is still there; the scrubber clears it
    // and the retried insert goes through.
    fault::Scrubber scrubber(sorter);
    EXPECT_EQ(scrubber.scrub().action, fault::ScrubAction::kRepaired);
    sorter.insert(20, 3);
    EXPECT_EQ(sorter.size(), 3u);
    expect_drains_sorted(sorter);
}

TEST(InsertSafety, MidInsertThrowOnADuplicateKeepsTheExistingMarker) {
    hw::Simulation sim;
    TagSorter sorter(small_config(), sim);
    sorter.insert(10, 1);
    sorter.insert(30, 2);

    // A second 30 finds its own marker, whose translation entry is gone:
    // the insert throws after the tree pass, but that marker predates it.
    sorter.table().poke(30, std::nullopt);

    EXPECT_THROW(sorter.insert(30, 3), fault::IntegrityError);
    EXPECT_TRUE(sorter.search_tree().contains(30))
        << "a failed duplicate insert must keep the marker it found";
    EXPECT_EQ(sorter.size(), 2u);

    fault::Scrubber scrubber(sorter);
    EXPECT_EQ(scrubber.scrub().action, fault::ScrubAction::kRepaired);
    sorter.insert(30, 3);
    EXPECT_EQ(sorter.size(), 3u);
    expect_drains_sorted(sorter);
}

TEST(InsertSafety, WrapFallbackThrowRollsBackTheFreshMarker) {
    hw::Simulation sim;
    TagSorter sorter(small_config(), sim);
    sorter.insert(4000, 1);  // the minimum sits near the top of the 12-bit space

    // 4100 wraps to physical 4, below the seam: the first pass plants 4's
    // marker and finds nothing, so the fallback pass walks the upper
    // segment — where the minimum's leaf marker has been lost, and that
    // second walk throws.
    sorter.search_tree().set_leaf_marker(4000, false);
    const std::uint64_t wrapped = 4100;
    const std::uint64_t physical = wrapped % sorter.search_tree().geometry().capacity();
    ASSERT_LT(physical, 4000u);

    EXPECT_THROW(sorter.insert(wrapped, 2), fault::IntegrityError);
    EXPECT_EQ(sorter.stats().wrap_fallback_searches, 1u);
    EXPECT_FALSE(sorter.search_tree().contains(physical))
        << "the failed insert must take its fresh marker back out";
    EXPECT_EQ(sorter.size(), 1u);

    fault::Scrubber scrubber(sorter);
    EXPECT_EQ(scrubber.scrub().action, fault::ScrubAction::kRepaired);
    sorter.insert(wrapped, 2);
    EXPECT_EQ(sorter.size(), 2u);
    EXPECT_EQ(sorter.pop_min()->tag, 4000u);
    EXPECT_EQ(sorter.pop_min()->tag, wrapped);
}

// ------------------------------------------------- end-to-end mini soak

TEST(FaultSoak, SecdedSurvivesInjectionWithExactPopOrder) {
    hw::Simulation sim;
    sim.enable_protection(fault::Protection::kSecded);
    fault::FaultInjector injector(99);
    fault::MemoryFaultModel model;
    model.bit_flip_per_access = 2e-4;
    injector.set_default_model(model);
    sim.attach_fault_injector(&injector);

    TagSorter sorter({tree::TreeGeometry::paper(), 4096, 24}, sim);
    fault::Scrubber scrubber(sorter);
    std::multiset<std::uint64_t> ref;
    Rng rng(99);
    std::uint64_t mismatches = 0, last_min = 0;

    for (int op = 0; op < 30000;) {
        const std::uint64_t min = ref.empty() ? last_min : *ref.begin();
        try {
            if (ref.size() < 200 && rng.next_bool(0.55)) {
                const std::uint64_t tag = min + rng.next_below(50);
                sorter.insert(tag, 1);
                ref.insert(tag);
            } else if (!ref.empty()) {
                const auto e = sorter.pop_min();
                ASSERT_TRUE(e.has_value());
                if (e->tag != *ref.begin()) ++mismatches;
                ref.erase(ref.begin());
                last_min = e->tag;
            }
            ++op;
        } catch (const fault::FaultError&) {
            scrubber.scrub();
            // SECDED + scrub must never lose entries at this rate.
            ASSERT_EQ(sorter.size(), ref.size());
        }
    }
    EXPECT_GT(injector.stats().transient_flips, 0u) << "the soak must be exercised";
    EXPECT_EQ(mismatches, 0u);
    EXPECT_EQ(sorter.size(), ref.size());
}

}  // namespace
}  // namespace wfqs
