#include "storage/linked_tag_store.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/assert.hpp"
#include "common/bits.hpp"
#include "fault/errors.hpp"

namespace wfqs::storage {
namespace {

unsigned bits_for(std::uint64_t max_value) {
    unsigned bits = 1;
    while ((std::uint64_t{1} << bits) <= max_value) ++bits;
    return bits;
}

}  // namespace

LinkedTagStore::LinkedTagStore(const Config& config, hw::Simulation& sim)
    : config_(config),
      sram_([&]() -> hw::Sram& {
          WFQS_REQUIRE(config.capacity >= 2, "tag store needs at least two slots");
          WFQS_REQUIRE(config.capacity <= (std::size_t{1} << 30),
                       "tag store capped at 2^30 slots (next-pointer width)");
          WFQS_REQUIRE(config.tag_bits >= 1 && config.tag_bits <= 32,
                       "tag width must be 1..32 bits");
          WFQS_REQUIRE(config.payload_bits >= 1 && config.payload_bits <= 32,
                       "payload width must be 1..32 bits");
          const unsigned next_bits = bits_for(config.capacity);  // `capacity` encodes null
          const unsigned word = config.tag_bits + config.payload_bits + next_bits;
          if (word <= 64)
              return sim.make_sram("tag-store", config.capacity, word);
          // Wide-slot layout: the lo stripe carries the link walk.
          const unsigned lo_word = config.tag_bits + next_bits;
          WFQS_REQUIRE(lo_word <= 64,
                       "tag + next pointer must pack into the lo stripe");
          return sim.make_sram("tag-store", config.capacity, lo_word);
      }()),
      next_bits_(bits_for(config.capacity)),
      clock_(sim.clock()) {
    if (config_.tag_bits + config_.payload_bits + next_bits_ > 64)
        hi_sram_ = &sim.make_sram("tag-store-hi", config_.capacity,
                                  config_.payload_bits);
}

void LinkedTagStore::poke_slot_raw(Addr addr, const Slot& s) {
    if (hi_sram_ == nullptr) {
        sram_.poke(addr, pack(s));
        return;
    }
    sram_.poke(addr, pack_lo(s));
    hi_sram_->poke(addr, s.entry.payload);
}

bool LinkedTagStore::full() const {
    return fresh_counter_ == config_.capacity && size_ == config_.capacity;
}

Addr LinkedTagStore::allocate_slot() {
    // Cycle 1 of every insert: find the next unused location (Fig. 10).
    if (fresh_counter_ < config_.capacity) {
        // Fresh region: slots are handed out by the initialisation counter
        // until it reaches capacity; no memory access needed, but the FSM
        // still spends its read cycle.
        const Addr slot = fresh_counter_++;
        clock_.advance();
        return slot;
    }
    if (size_ == config_.capacity)
        throw std::overflow_error("LinkedTagStore: tag memory full");
    // Empty list: freed slots chain through their *stale* next pointers —
    // valid because tags only ever depart from the head, so each freed
    // slot's old pointer names the slot freed right after it (the paper's
    // "the link itself is left unchanged" trick). One read pops the chain.
    if (empty_head_ == kNullAddr || empty_head_ >= config_.capacity) {
        throw fault::IntegrityError(
            fault::IntegrityKind::kFreeList,
            "empty-list head invalid with " + std::to_string(empty_list_length()) +
                " freed slot(s) outstanding");
    }
    const Addr slot = empty_head_;
    // Only the link matters here: the chain walk never touches the
    // payload stripe.
    const Slot s = hi_sram_ == nullptr ? unpack(sram_.read(slot))
                                       : unpack_lo(sram_.read(slot));
    empty_head_ = s.next;
    clock_.advance();
    return slot;
}

Addr LinkedTagStore::insert_after(Addr pred, const TagEntry& entry) {
    WFQS_REQUIRE(pred != kNullAddr && pred < config_.capacity,
                 "insert_after needs a valid predecessor (use insert_at_head)");
    const std::uint64_t t0 = clock_.now();
    const Addr slot = allocate_slot();  // cycle 1

    Slot pred_slot = read_slot(pred);  // cycle 2
    clock_.advance();
    const Addr succ = pred_slot.next;

    pred_slot.next = slot;  // cycle 3
    write_slot(pred, pred_slot);
    clock_.advance();

    write_slot(slot, Slot{entry, succ});  // cycle 4
    clock_.advance();

    ++size_;
    ++stats_.inserts;
    stats_.worst_cycles_per_op =
        std::max(stats_.worst_cycles_per_op, clock_.now() - t0);
    return slot;
}

Addr LinkedTagStore::insert_at_head(const TagEntry& entry) {
    const std::uint64_t t0 = clock_.now();
    const Addr slot = allocate_slot();  // cycle 1
    clock_.advance();                   // cycle 2: no predecessor to read

    write_slot(slot, Slot{entry, head_});  // cycle 3
    clock_.advance();

    head_ = slot;      // cycle 4: head register update
    clock_.advance();

    ++size_;
    ++stats_.inserts;
    stats_.worst_cycles_per_op =
        std::max(stats_.worst_cycles_per_op, clock_.now() - t0);
    return slot;
}

std::optional<TagEntry> LinkedTagStore::pop_head() {
    if (size_ == 0) return std::nullopt;
    const std::uint64_t t0 = clock_.now();
    const Addr old_head = head_;
    const Slot s = read_slot(old_head);  // single read cycle
    clock_.advance();
    head_ = s.next;
    // The freed slot is *not* written: its stale pointer already names the
    // slot that will depart right after it, so the chain of stale pointers
    // IS the empty list (Fig. 10 — "the link itself is left unchanged").
    // This holds because tags depart from the head in order; should a
    // caller have inserted a brand-new head in between (never happens
    // under fair queueing), the chain tail is patched with one write.
    if (empty_list_length() == 0) {
        empty_head_ = old_head;
    } else if (free_tail_stale_next_ != old_head) {
        Slot tail = peek_slot_raw(free_tail_);
        tail.next = old_head;
        write_slot(free_tail_, tail);
        clock_.advance();
    }
    free_tail_ = old_head;
    free_tail_stale_next_ = s.next;
    --size_;
    ++stats_.pops;
    stats_.worst_cycles_per_op =
        std::max(stats_.worst_cycles_per_op, clock_.now() - t0);
    return s.entry;
}

LinkedTagStore::CombinedResult LinkedTagStore::insert_and_pop_head(
    Addr pred, const TagEntry& entry) {
    WFQS_REQUIRE(size_ > 0, "insert_and_pop_head needs a non-empty list");
    const std::uint64_t t0 = clock_.now();

    const Addr slot = head_;               // reuse the departing slot
    const Slot popped = read_slot(slot);   // cycle 1
    clock_.advance();
    const Addr new_head = popped.next;

    if (pred == kNullAddr || pred == slot) {
        // The new tag follows the departing minimum: it becomes the head,
        // occupying the same physical slot.
        clock_.advance();  // cycle 2 (no predecessor read)
        clock_.advance();  // cycle 3 (no predecessor write)
        write_slot(slot, Slot{entry, new_head});  // cycle 4
        clock_.advance();
        // head_ already equals slot
    } else {
        WFQS_REQUIRE(pred < config_.capacity, "bad predecessor address");
        Slot pred_slot = read_slot(pred);  // cycle 2
        clock_.advance();
        const Addr succ = pred_slot.next;
        pred_slot.next = slot;  // cycle 3
        write_slot(pred, pred_slot);
        clock_.advance();
        write_slot(slot, Slot{entry, succ});  // cycle 4
        clock_.advance();
        head_ = new_head;
    }

    ++stats_.combined_ops;
    stats_.worst_cycles_per_op =
        std::max(stats_.worst_cycles_per_op, clock_.now() - t0);
    return CombinedResult{popped.entry, slot};
}

void LinkedTagStore::throw_broken_head_link() const {
    throw fault::IntegrityError(
        fault::IntegrityKind::kBrokenLink,
        "head slot's next pointer is invalid with " + std::to_string(size_) +
            " entries stored");
}

std::vector<TagEntry> LinkedTagStore::snapshot() const {
    std::vector<TagEntry> out;
    out.reserve(size_);
    Addr a = head_;
    for (std::size_t i = 0; i < size_; ++i) {
        if (a == kNullAddr || a >= config_.capacity) {
            throw fault::IntegrityError(
                fault::IntegrityKind::kBrokenLink,
                "list chain breaks after " + std::to_string(i) + " of " +
                    std::to_string(size_) + " entries");
        }
        const Slot s = peek_slot_raw(a);
        out.push_back(s.entry);
        a = s.next;
    }
    return out;
}

LinkedTagStore::SlotView LinkedTagStore::peek_slot(Addr addr) const {
    const Slot s = peek_slot_raw(addr);
    return SlotView{s.entry, s.next};
}

void LinkedTagStore::poke_slot(Addr addr, const SlotView& slot) {
    poke_slot_raw(addr, Slot{slot.entry, slot.next});
}

void LinkedTagStore::relink_free_list(const std::vector<Addr>& free_slots) {
    WFQS_REQUIRE(free_slots.size() == empty_list_length(),
                 "relink_free_list must cover every freed slot");
    if (free_slots.empty()) {
        empty_head_ = kNullAddr;
        free_tail_ = kNullAddr;
        free_tail_stale_next_ = kNullAddr;
        return;
    }
    for (std::size_t i = 0; i < free_slots.size(); ++i) {
        SlotView s = peek_slot(free_slots[i]);
        s.next = i + 1 < free_slots.size() ? free_slots[i + 1] : kNullAddr;
        poke_slot(free_slots[i], s);
    }
    empty_head_ = free_slots.front();
    free_tail_ = free_slots.back();
    free_tail_stale_next_ = kNullAddr;
}

void LinkedTagStore::reset() {
    head_ = kNullAddr;
    empty_head_ = kNullAddr;
    free_tail_ = kNullAddr;
    free_tail_stale_next_ = kNullAddr;
    fresh_counter_ = 0;
    size_ = 0;
}

std::size_t LinkedTagStore::empty_list_length() const {
    // Freed slots = everything handed out by the counter that is not live.
    return static_cast<std::size_t>(fresh_counter_) - size_;
}

}  // namespace wfqs::storage
