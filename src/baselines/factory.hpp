// Factory over every tag-queue structure of Table I, including the
// paper's multi-bit tree sorter itself (wrapped behind the same
// interface with its SRAM traffic as the access count), so benches and
// tests can sweep all of them over identical workloads.
#pragma once

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "baselines/tag_queue.hpp"

namespace wfqs::baselines {

enum class QueueKind {
    MultibitTree,  ///< the paper's sorter (src/core)
    BinaryTree,    ///< same circuit, branching factor 2 (Table I "tree")
    Heap,
    SortedList,
    Skiplist,
    Calendar,
    Tcq,
    Binning,
    BinaryCam,
    Tcam,
    Veb,
};

/// Which implementation backs the sorter-based kinds (MultibitTree /
/// BinaryTree). The software baselines ignore this.
enum class SorterBackend {
    kModel,  ///< cycle-accurate SRAM-modeled circuit (core::TagSorter)
    kFfs,    ///< host-native hierarchical-bitmap sorter (core::FfsSorter)
};

std::string backend_name(SorterBackend backend);
std::optional<SorterBackend> backend_from_name(std::string_view name);
const std::vector<SorterBackend>& all_sorter_backends();

struct QueueParams {
    unsigned range_bits = 12;     ///< tag universe for bounded structures
    std::size_t capacity = 8192;  ///< slot budget for the sorter variants
    /// Sorter banks (power of two), model backend only: kFfs with more
    /// than one bank throws std::invalid_argument. The slot budget is
    /// split across banks rounding up (ceil(capacity / num_banks) per
    /// bank), so the aggregate capacity never drops below the request; 1
    /// (the default) is bit- and cycle-identical to the unsharded
    /// circuit. Ignored by the software baselines.
    unsigned num_banks = 1;
    /// Sorter implementation behind the contract. kFfs drops the cycle
    /// model (simulation() is null, accesses count 1 per op) in exchange
    /// for host-native wall-clock speed.
    SorterBackend backend = SorterBackend::kModel;
};

std::unique_ptr<TagQueue> make_tag_queue(QueueKind kind, const QueueParams& params = {});
const std::vector<QueueKind>& all_queue_kinds();
std::string queue_kind_name(QueueKind kind);

}  // namespace wfqs::baselines
