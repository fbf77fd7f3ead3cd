// The scalar sorter contract, stated once. TagSorter (the cycle model),
// ShardedSorter (N model banks behind a head merge) and FfsSorter (the
// host-native bitmap) all satisfy it, and templates over "a sorter" are
// constrained by it.
//
//   insert(tag, payload)    sort one tag in. Throws std::overflow_error
//                           when full, then std::invalid_argument when the
//                           tag would stretch the live window past
//                           window_span() (Fig. 6) or, in paper mode,
//                           undercut the minimum. Both before any state
//                           changes.
//   pop_min()               remove and return the smallest tag; FIFO among
//                           equal tags; nullopt when empty.
//   peek_min()              the smallest tag without removing it.
//   insert_and_pop(tag, p)  §III-C combined op: the *previous* minimum
//                           departs and `tag` enters. Precondition:
//                           non-empty (std::invalid_argument otherwise).
//   size/empty/full/capacity, window_span — observers; no state change.
//
// Tags are logical (unwrapped, 64-bit); each sorter wraps them to its
// W-bit value space internally.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <optional>

namespace wfqs::core {

struct SortedTag {
    std::uint64_t tag = 0;       ///< logical (unwrapped) tag value
    std::uint32_t payload = 0;   ///< packet-buffer pointer

    friend bool operator==(const SortedTag&, const SortedTag&) = default;
};

template <typename S>
concept SorterContract = requires(S& s, const S& cs, std::uint64_t tag,
                                  std::uint32_t payload) {
    { s.insert(tag, payload) } -> std::same_as<void>;
    { s.pop_min() } -> std::same_as<std::optional<SortedTag>>;
    { cs.peek_min() } -> std::same_as<std::optional<SortedTag>>;
    { s.insert_and_pop(tag, payload) } -> std::same_as<SortedTag>;
    { cs.size() } -> std::same_as<std::size_t>;
    { cs.empty() } -> std::same_as<bool>;
    { cs.full() } -> std::same_as<bool>;
    { cs.capacity() } -> std::same_as<std::size_t>;
    { cs.window_span() } -> std::same_as<std::uint64_t>;
};

}  // namespace wfqs::core
