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
#include <algorithm>
#include <bit>
#include <stdexcept>
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
        : payload_bits_(payload_bits_for(geometry, per_bank_capacity(capacity, num_banks))),
          max_payload_(static_cast<std::uint32_t>(low_mask(payload_bits_))),
          sorter_({{geometry, per_bank_capacity(capacity, num_banks), payload_bits_},
                   num_banks},
                  sim_),
          name_(num_banks > 1 ? name + " x" + std::to_string(num_banks)
                              : std::move(name)),
          complexity_(std::move(complexity)) {}

    void insert(std::uint64_t tag, std::uint32_t payload) override {
        if (payload > max_payload_)
            throw std::out_of_range("payload " + std::to_string(payload) +
                                    " wider than the tag store's " +
                                    std::to_string(payload_bits_) + "-bit field");
        const std::uint64_t before = sim_.total_memory_stats().total();
        sorter_.insert(tag, payload);  // a refusal throws before the op counts
        OpScope op(*this, OpScope::Kind::Insert);
        touch(sim_.total_memory_stats().total() - before);
    }

    std::optional<QueueEntry> pop_min() override {
        if (sorter_.empty()) return std::nullopt;
        const std::uint64_t before = sim_.total_memory_stats().total();
        const auto popped = sorter_.pop_min();
        OpScope op(*this, OpScope::Kind::Pop);
        touch(sim_.total_memory_stats().total() - before);
        return QueueEntry{popped->tag, popped->payload};
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
    unsigned payload_bits_;
    std::uint32_t max_payload_;
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

/// The host-native backend behind the TagQueue interface: one FfsSorter.
/// There is no cycle model behind it — simulation() is null and every op
/// counts one access — the point is wall-clock ops/s behind the same
/// contract.
class FfsTagQueue final : public TagQueue {
public:
    FfsTagQueue(tree::TreeGeometry geometry, std::size_t capacity, std::string name,
                std::string complexity)
        : sorter_({geometry, capacity, /*payload_bits=*/32}),
          name_(std::move(name)),
          complexity_(std::move(complexity)) {}

    void insert(std::uint64_t tag, std::uint32_t payload) override {
        sorter_.insert(tag, payload);  // a refusal throws before the op counts
        OpScope op(*this, OpScope::Kind::Insert);
        touch(1);
    }

    std::optional<QueueEntry> pop_min() override {
        if (sorter_.empty()) return std::nullopt;
        const auto popped = sorter_.pop_min();
        OpScope op(*this, OpScope::Kind::Pop);
        touch(1);
        return QueueEntry{popped->tag, popped->payload};
    }

    std::optional<QueueEntry> peek_min() override {
        const auto head = sorter_.peek_min();
        if (!head) return std::nullopt;
        return QueueEntry{head->tag, head->payload};
    }

    std::size_t size() const override { return sorter_.size(); }
    std::string name() const override { return name_; }
    std::string model() const override { return "sort"; }
    std::string complexity() const override { return complexity_; }

private:
    core::FfsSorter sorter_;
    std::string name_;
    std::string complexity_;
};

/// Banks buy modeled cycles on TagSorter engines; FfsSorter has no cycle
/// model, so a banked ffs queue is refused rather than emulated.
std::unique_ptr<TagQueue> make_sorter_queue(tree::TreeGeometry geometry,
                                            const QueueParams& params,
                                            const std::string& name,
                                            const std::string& complexity) {
    if (params.backend == SorterBackend::kFfs) {
        WFQS_REQUIRE(params.num_banks <= 1, "the ffs backend has no banked form");
        return std::make_unique<FfsTagQueue>(geometry, params.capacity,
                                             name + " [ffs]", complexity);
    }
    return std::make_unique<SorterTagQueue>(geometry, params.capacity,
                                            params.num_banks, name, complexity);
}

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
            return make_sorter_queue(multibit_geometry(params.range_bits), params,
                                     "multi-bit tree", "O(W/k)");
        case QueueKind::BinaryTree:
            return make_sorter_queue(tree::TreeGeometry::binary(params.range_bits),
                                     params, "binary tree", "O(W)");
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
