#include "baselines/factory.hpp"

#include "baselines/binning_queue.hpp"
#include "baselines/calendar_queue.hpp"
#include "baselines/cam_queue.hpp"
#include "baselines/heap_queue.hpp"
#include "baselines/skiplist_queue.hpp"
#include "baselines/sorted_list_queue.hpp"
#include "baselines/tcq_queue.hpp"
#include "baselines/veb_queue.hpp"
#include "common/assert.hpp"
#include "common/bits.hpp"
#include <bit>
#include <algorithm>
#include "core/ffs_sorter.hpp"
#include "core/sharded_sorter.hpp"

namespace wfqs::baselines {
namespace {

/// The paper's sorter behind the TagQueue interface. Memory accesses are
/// the circuit's real SRAM traffic (tree levels in SRAM, translation
/// table, tag store); register reads are free, as in the silicon.
/// Held as a ShardedSorter so QueueParams::num_banks can scale it out;
/// at one bank (the default) that wrapper is a pass-through and the
/// queue is bit- and cycle-identical to a bare TagSorter.
class SorterTagQueue final : public TagQueue {
public:
    static unsigned payload_bits_for(const tree::TreeGeometry& g, std::size_t capacity) {
        const unsigned next_bits = static_cast<unsigned>(
            64 - std::countl_zero(static_cast<std::uint64_t>(capacity)));
        const unsigned avail = 64 - g.tag_bits() - next_bits;
        WFQS_REQUIRE(avail >= 16, "tree too wide to pack payload into list entries");
        return std::min(avail, 32u);
    }

    /// Per-bank slot budget: split rounding up, so the aggregate never
    /// shrinks below the requested total.
    static std::size_t per_bank_capacity(std::size_t capacity, unsigned num_banks) {
        const std::size_t n = std::max(num_banks, 1u);
        return std::max<std::size_t>((capacity + n - 1) / n, 1);
    }

    SorterTagQueue(tree::TreeGeometry geometry, std::size_t capacity,
                   unsigned num_banks, std::string name, std::string complexity)
        : sorter_(
              {{geometry, per_bank_capacity(capacity, num_banks),
                payload_bits_for(geometry, per_bank_capacity(capacity, num_banks))},
               num_banks},
              sim_),
          name_(num_banks > 1 ? name + " x" + std::to_string(num_banks)
                              : std::move(name)),
          complexity_(std::move(complexity)) {}

    void insert(std::uint64_t tag, std::uint32_t payload) override {
        OpScope op(*this, OpScope::Kind::Insert);
        const std::uint64_t before = sim_.total_memory_stats().total();
        sorter_.insert(tag, payload);
        touch(sim_.total_memory_stats().total() - before);
    }

    std::optional<QueueEntry> pop_min() override {
        if (sorter_.empty()) return std::nullopt;
        OpScope op(*this, OpScope::Kind::Pop);
        const std::uint64_t before = sim_.total_memory_stats().total();
        const auto popped = sorter_.pop_min();
        touch(sim_.total_memory_stats().total() - before);
        return QueueEntry{popped->tag, popped->payload};
    }

    /// Batched entry points: one stats bracket and one sorter dispatch
    /// per batch (the inventory-wide SramStats sweep behind touch() is
    /// the dominant host cost of a scalar op). Cycle accounting in the
    /// sorter is per-op and identical to the scalar path.
    static constexpr std::size_t kBatchChunk = 64;

    void insert_batch(const QueueEntry* entries, std::size_t n) override {
        const std::uint64_t before = sim_.total_memory_stats().total();
        core::SortedTag buf[kBatchChunk];
        std::size_t done = 0;
        while (done < n) {
            const std::size_t chunk = std::min(n - done, kBatchChunk);
            for (std::size_t i = 0; i < chunk; ++i)
                buf[i] = core::SortedTag{entries[done + i].tag, entries[done + i].payload};
            sorter_.insert_batch(buf, chunk);
            done += chunk;
        }
        record_batch(OpScope::Kind::Insert, n,
                     sim_.total_memory_stats().total() - before);
    }

    std::size_t pop_batch(QueueEntry* out, std::size_t max_n) override {
        const std::uint64_t before = sim_.total_memory_stats().total();
        core::SortedTag buf[kBatchChunk];
        std::size_t total = 0;
        while (total < max_n) {
            const std::size_t got =
                sorter_.pop_batch(buf, std::min(max_n - total, kBatchChunk));
            if (got == 0) break;
            for (std::size_t i = 0; i < got; ++i)
                out[total + i] = QueueEntry{buf[i].tag, buf[i].payload};
            total += got;
        }
        record_batch(OpScope::Kind::Pop, total,
                     sim_.total_memory_stats().total() - before);
        return total;
    }

    std::optional<QueueEntry> peek_min() override {
        const auto min = sorter_.peek_min();
        if (!min) return std::nullopt;
        return QueueEntry{min->tag, min->payload};
    }

    std::size_t size() const override { return sorter_.size(); }
    std::string name() const override { return name_; }
    std::string model() const override { return "sort"; }
    std::string complexity() const override { return complexity_; }

    bool recover() override { return sorter_.recover(); }

    hw::Simulation* simulation() override { return &sim_; }

private:
    hw::Simulation sim_;
    core::ShardedSorter sorter_;
    std::string name_;
    std::string complexity_;
};

tree::TreeGeometry multibit_geometry(unsigned range_bits) {
    // 4-bit literals as in the silicon; enough levels to cover the range.
    const unsigned levels = static_cast<unsigned>(ceil_div(range_bits, 4));
    return tree::TreeGeometry{levels, 4};
}

/// The host-native backend behind the TagQueue interface: N FfsSorter
/// banks under the ShardedSorter's tag-interleave encoding (bank =
/// tag mod N, bank-local tag = tag div N, so the aggregate window is N
/// bank spans and cross-bank global tags never tie). There is no cycle
/// model behind it — simulation() is null and every op counts one
/// access — the point is wall-clock ops/s behind the same contract.
class FfsTagQueue final : public TagQueue {
public:
    FfsTagQueue(tree::TreeGeometry geometry, std::size_t capacity,
                unsigned num_banks, std::string name, std::string complexity)
        : name_(num_banks > 1 ? name + " x" + std::to_string(num_banks)
                              : std::move(name)),
          complexity_(std::move(complexity)) {
        const unsigned n = std::max(num_banks, 1u);
        WFQS_REQUIRE(std::has_single_bit(n),
                     "bank count must be a power of two");
        shift_ = log2_exact(n);
        bank_mask_ = n - 1;
        core::FfsSorter::Config cfg;
        cfg.geometry = geometry;
        cfg.capacity = SorterTagQueue::per_bank_capacity(capacity, n);
        cfg.payload_bits = 32;  // TagQueue payloads are raw 32-bit words
        banks_.reserve(n);
        for (unsigned b = 0; b < n; ++b) banks_.emplace_back(cfg);
    }

    void insert(std::uint64_t tag, std::uint32_t payload) override {
        OpScope op(*this, OpScope::Kind::Insert);
        banks_[bank_of(tag)].insert(local_of(tag), payload);
        touch(1);
    }

    std::optional<QueueEntry> pop_min() override {
        const int b = min_bank();
        if (b < 0) return std::nullopt;
        OpScope op(*this, OpScope::Kind::Pop);
        const auto popped = banks_[static_cast<unsigned>(b)].pop_min();
        touch(1);
        return QueueEntry{global_of(popped->tag, static_cast<unsigned>(b)),
                          popped->payload};
    }

    std::optional<QueueEntry> peek_min() override {
        const int b = min_bank();
        if (b < 0) return std::nullopt;
        const auto head = banks_[static_cast<unsigned>(b)].peek_min();
        return QueueEntry{global_of(head->tag, static_cast<unsigned>(b)),
                          head->payload};
    }

    void insert_batch(const QueueEntry* entries, std::size_t n) override {
        if (banks_.size() == 1) {
            // Single bank: global and local tag spaces coincide, so the
            // whole batch goes to the sorter's batch entry point in chunks
            // (one dispatch per chunk instead of one per entry). A throw
            // leaves the sorter's applied prefix in place; the exact
            // applied count is recovered from the occupancy delta.
            const std::size_t before = banks_[0].size();
            core::SortedTag buf[kBatchChunk];
            std::size_t done = 0;
            try {
                while (done < n) {
                    const std::size_t chunk = std::min(n - done, kBatchChunk);
                    for (std::size_t i = 0; i < chunk; ++i)
                        buf[i] = core::SortedTag{entries[done + i].tag,
                                                 entries[done + i].payload};
                    banks_[0].insert_batch(buf, chunk);
                    done += chunk;
                }
            } catch (...) {
                const std::size_t applied = banks_[0].size() - before;
                record_batch(OpScope::Kind::Insert, applied, applied);
                throw;
            }
            record_batch(OpScope::Kind::Insert, n, n);
            return;
        }
        // Scalar-loop semantics (a throw leaves entries [0, i) applied).
        std::size_t done = 0;
        try {
            for (; done < n; ++done)
                banks_[bank_of(entries[done].tag)].insert(
                    local_of(entries[done].tag), entries[done].payload);
        } catch (...) {
            record_batch(OpScope::Kind::Insert, done, done);
            throw;
        }
        record_batch(OpScope::Kind::Insert, n, n);
    }

    std::size_t pop_batch(QueueEntry* out, std::size_t max_n) override {
        if (banks_.size() == 1) {
            // Single bank: pops come straight off the sorter in chunks —
            // no per-pop min-bank sweep, no per-entry dispatch.
            core::SortedTag buf[kBatchChunk];
            std::size_t total = 0;
            while (total < max_n) {
                const std::size_t got = banks_[0].pop_batch(
                    buf, std::min(max_n - total, kBatchChunk));
                if (got == 0) break;
                for (std::size_t i = 0; i < got; ++i)
                    out[total + i] = QueueEntry{buf[i].tag, buf[i].payload};
                total += got;
            }
            record_batch(OpScope::Kind::Pop, total, total);
            return total;
        }
        std::size_t total = 0;
        while (total < max_n) {
            const auto e = pop_min_unscoped();
            if (!e) break;
            out[total++] = *e;
        }
        record_batch(OpScope::Kind::Pop, total, total);
        return total;
    }

    std::size_t size() const override {
        std::size_t n = 0;
        for (const auto& b : banks_) n += b.size();
        return n;
    }
    std::string name() const override { return name_; }
    std::string model() const override { return "sort"; }
    std::string complexity() const override { return complexity_; }

private:
    static constexpr std::size_t kBatchChunk = 64;

    unsigned bank_of(std::uint64_t tag) const {
        return static_cast<unsigned>(tag & bank_mask_);
    }
    std::uint64_t local_of(std::uint64_t tag) const { return tag >> shift_; }
    std::uint64_t global_of(std::uint64_t local, unsigned bank) const {
        return (local << shift_) | bank;
    }

    /// Comparator sweep over per-bank heads in *global* tag units. Under
    /// interleave, globals from different banks never tie (they differ in
    /// the low bank bits), so strict less-than suffices.
    int min_bank() const {
        int best = -1;
        std::uint64_t best_tag = 0;
        for (unsigned b = 0; b < banks_.size(); ++b) {
            if (banks_[b].empty()) continue;
            const std::uint64_t t = global_of(banks_[b].head_logical(), b);
            if (best < 0 || t < best_tag) {
                best_tag = t;
                best = static_cast<int>(b);
            }
        }
        return best;
    }

    std::optional<QueueEntry> pop_min_unscoped() {
        const int b = min_bank();
        if (b < 0) return std::nullopt;
        const auto popped = banks_[static_cast<unsigned>(b)].pop_min();
        return QueueEntry{global_of(popped->tag, static_cast<unsigned>(b)),
                          popped->payload};
    }

    std::vector<core::FfsSorter> banks_;
    unsigned shift_ = 0;
    std::uint64_t bank_mask_ = 0;
    std::string name_;
    std::string complexity_;
};

}  // namespace

std::string backend_name(SorterBackend backend) {
    return backend == SorterBackend::kFfs ? "ffs" : "model";
}

std::optional<SorterBackend> backend_from_name(std::string_view name) {
    if (name == "model") return SorterBackend::kModel;
    if (name == "ffs") return SorterBackend::kFfs;
    return std::nullopt;
}

const std::vector<SorterBackend>& all_sorter_backends() {
    static const std::vector<SorterBackend> kBackends = {SorterBackend::kModel,
                                                         SorterBackend::kFfs};
    return kBackends;
}

std::unique_ptr<TagQueue> make_tag_queue(QueueKind kind, const QueueParams& params) {
    switch (kind) {
        case QueueKind::MultibitTree:
            if (params.backend == SorterBackend::kFfs)
                return std::make_unique<FfsTagQueue>(
                    multibit_geometry(params.range_bits), params.capacity,
                    params.num_banks, "multi-bit tree [ffs]", "O(W/k)");
            return std::make_unique<SorterTagQueue>(multibit_geometry(params.range_bits),
                                                    params.capacity, params.num_banks,
                                                    "multi-bit tree", "O(W/k)");
        case QueueKind::BinaryTree:
            if (params.backend == SorterBackend::kFfs)
                return std::make_unique<FfsTagQueue>(
                    tree::TreeGeometry::binary(params.range_bits), params.capacity,
                    params.num_banks, "binary tree [ffs]", "O(W)");
            return std::make_unique<SorterTagQueue>(
                tree::TreeGeometry::binary(params.range_bits), params.capacity,
                params.num_banks, "binary tree", "O(W)");
        case QueueKind::Heap:
            return std::make_unique<HeapTagQueue>();
        case QueueKind::SortedList:
            return std::make_unique<SortedListQueue>();
        case QueueKind::Skiplist:
            return std::make_unique<SkiplistQueue>();
        case QueueKind::Calendar:
            return std::make_unique<CalendarQueue>();
        case QueueKind::Tcq:
            return std::make_unique<TcqQueue>(params.range_bits);
        case QueueKind::Binning:
            return std::make_unique<BinningQueue>(params.range_bits, 64);
        case QueueKind::BinaryCam:
            return std::make_unique<BinaryCamQueue>(params.range_bits);
        case QueueKind::Tcam:
            return std::make_unique<TcamQueue>(params.range_bits);
        case QueueKind::Veb:
            return std::make_unique<VebQueue>(params.range_bits);
    }
    WFQS_ASSERT_MSG(false, "unknown queue kind");
    return nullptr;
}

const std::vector<QueueKind>& all_queue_kinds() {
    static const std::vector<QueueKind> kinds = {
        QueueKind::MultibitTree, QueueKind::BinaryTree, QueueKind::Heap,
        QueueKind::SortedList,   QueueKind::Skiplist,   QueueKind::Calendar,
        QueueKind::Tcq,          QueueKind::Binning,    QueueKind::BinaryCam,
        QueueKind::Tcam,         QueueKind::Veb,
    };
    return kinds;
}

std::string queue_kind_name(QueueKind kind) {
    return make_tag_queue(kind, {12, 64})->name();
}

}  // namespace wfqs::baselines
