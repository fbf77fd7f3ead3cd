// A huge index space whose memory follows what was written: the host
// backing of paged SRAM blocks, the FFS bitmap levels and the translation
// bulk tier. Pages of kPageSize sit behind a two-level directory (64 KiB,
// built up front, for 2^32 entries) and are allocated on first nonzero
// write; absent pages and blocks point at shared all-zero sentinels, so a
// read is three dependent loads with no branch and no hash probe. erase()
// frees a page with its last nonzero entry, clear_range() the pages it
// covers, and a block goes with its last page. Freed full-size pages and
// blocks are recycled, so keys that come and go cost no heap call or fill,
// and the array never holds more than at its peak. Pages are small
// because a lone entry costs a whole one.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace wfqs {

template <typename T>
class PagedArray {
    static_assert(std::is_unsigned_v<T>, "entries are words: zero-filled and OR-reduced");

public:
    static constexpr unsigned kPageShift = 6;    ///< 64 entries per page
    static constexpr unsigned kBlockShift = 13;  ///< 8192 pages per directory block
    static constexpr std::uint64_t kPageSize = std::uint64_t{1} << kPageShift;

    explicit PagedArray(std::uint64_t size = 0)
        : size_(size),
          dir_(static_cast<std::size_t>(ceil_shift(size, kDirShift)), Slot{zero_block(), 0}) {}
    PagedArray(PagedArray&& other) noexcept
        : size_(std::exchange(other.size_, 0)),
          live_pages_(std::exchange(other.live_pages_, 0)),
          dir_(std::move(other.dir_)),
          spare_pages_(std::move(other.spare_pages_)),
          spare_blocks_(std::move(other.spare_blocks_)) {}
    PagedArray& operator=(PagedArray&&) = delete;
    ~PagedArray() {
        clear();
        for (T* page : spare_pages_) delete[] page;
        for (T** block : spare_blocks_) delete[] block;
    }

    std::uint64_t size() const { return size_; }
    std::uint64_t allocated_pages() const { return live_pages_; }  ///< recycled ones aside

    T get(std::uint64_t i) const { return page_of(i)[i & kPageMask]; }

    /// Writable entry, allocating its page; also the integrity tests'
    /// corruption hook (`array[i] ^= bit`).
    T& operator[](std::uint64_t i) {
        T* page = page_of(i);
        if (page == zero_page_) [[unlikely]] page = allocate(i);
        return page[i & kPageMask];
    }

    /// Store `value`; a zero stored into an absent page allocates nothing.
    void set(std::uint64_t i, T value) {
        T* page = page_of(i);
        if (page == zero_page_) [[unlikely]] {
            if (value == 0) return;
            page = allocate(i);
        }
        page[i & kPageMask] = value;
    }

    /// Zero entry `i`, freeing its page when no nonzero entry is left in it.
    void erase(std::uint64_t i) {
        T* page = page_of(i);
        if (page == zero_page_) return;
        page[i & kPageMask] = 0;
        const std::uint64_t p = i >> kPageShift, len = page_len(p);
        T any = 0;
        for (std::uint64_t k = 0; k < len; ++k) any |= page[k];
        if (any == 0) free_page(p, page, len == kPageSize);
    }

    /// Zero [first, first + count), freeing the pages it covers whole.
    void clear_range(std::uint64_t first, std::uint64_t count) {
        walk(first, count, [&](T* page, std::uint64_t p, std::uint64_t lo, std::uint64_t hi) {
            if (lo == 0 && hi == page_len(p))
                free_page(p, page, false);
            else
                std::fill(page + lo, page + hi, T{0});
        });
    }
    void clear() { clear_range(0, size_); }

    /// `fn(index, value)` for every nonzero entry in [first, first + count),
    /// ascending. Only allocated pages are scanned.
    template <typename Fn>
    void for_each_nonzero(std::uint64_t first, std::uint64_t count, Fn&& fn) const {
        walk(first, count, [&](const T* page, std::uint64_t p, std::uint64_t lo, std::uint64_t hi) {
            for (std::uint64_t k = lo; k < hi; ++k)
                if (page[k] != 0) fn((p << kPageShift) + k, page[k]);
        });
    }
    template <typename Fn>
    void for_each_nonzero(Fn&& fn) const {
        for_each_nonzero(0, size_, std::forward<Fn>(fn));
    }

private:
    static constexpr unsigned kDirShift = kPageShift + kBlockShift;
    static constexpr std::uint64_t kPageMask = kPageSize - 1;
    static constexpr std::uint64_t kBlockPages = std::uint64_t{1} << kBlockShift;
    static constexpr std::uint64_t kBlockMask = kBlockPages - 1;

    static constexpr std::uint64_t ceil_shift(std::uint64_t n, unsigned shift) {
        return (n + (std::uint64_t{1} << shift) - 1) >> shift;
    }

    alignas(64) static inline T zero_page_[kPageSize] = {};
    static T** zero_block() {
        static T** const block = [] {
            static T* pages[kBlockPages];
            std::fill(std::begin(pages), std::end(pages), &zero_page_[0]);
            return &pages[0];
        }();
        return block;
    }

    T* page_of(std::uint64_t i) const {
        return dir_[static_cast<std::size_t>(i >> kDirShift)].block[(i >> kPageShift) & kBlockMask];
    }
    /// Entries in page `p`, pages in block `b` (the last ones are trimmed).
    std::uint64_t page_len(std::uint64_t p) const {
        return std::min(kPageSize, size_ - (p << kPageShift));
    }
    std::uint64_t block_len(std::size_t b) const {
        return std::min(kBlockPages,
                        ceil_shift(size_, kPageShift) - (std::uint64_t{b} << kBlockShift));
    }

    /// `fn(page, number, lo, hi)` per allocated page overlapping [first,
    /// first + count), ascending; [lo, hi) are in-page offsets. May free.
    template <typename Fn>
    void walk(std::uint64_t first, std::uint64_t count, Fn&& fn) const {
        WFQS_ASSERT(first <= size_ && count <= size_ - first);
        const std::uint64_t end = first + count;
        for (std::uint64_t p = first >> kPageShift; p << kPageShift < end; ++p) {
            const auto b = static_cast<std::size_t>(p >> kBlockShift);
            if (dir_[b].pages == 0) {
                p |= kBlockMask;  // skip the rest of an absent block
                continue;
            }
            T* page = dir_[b].block[p & kBlockMask];
            const std::uint64_t base = p << kPageShift;
            if (page != zero_page_)
                fn(page, p, std::max(first, base) - base, std::min(end, base + kPageSize) - base);
        }
    }

    /// Unlink page `p`: recycled when `zeroed` (all zero, full size).
    void free_page(std::uint64_t p, T* page, bool zeroed) {
        const auto b = static_cast<std::size_t>(p >> kBlockShift);
        dir_[b].block[p & kBlockMask] = zero_page_;
        --live_pages_;
        if (zeroed)
            spare_pages_.push_back(page);
        else
            delete[] page;
        if (--dir_[b].pages != 0) return;
        if (block_len(b) == kBlockPages)
            spare_blocks_.push_back(dir_[b].block);
        else
            delete[] dir_[b].block;
        dir_[b].block = zero_block();
    }

    /// Out of line, so that get()/set() callers keep small inline lanes.
    [[gnu::noinline]] T* allocate(std::uint64_t i) {
        WFQS_ASSERT(i < size_);
        const auto b = static_cast<std::size_t>(i >> kDirShift);
        if (dir_[b].block == zero_block()) {
            const auto n = static_cast<std::size_t>(block_len(b));
            T** block = n == kBlockPages ? take(spare_blocks_) : nullptr;
            if (block == nullptr) std::fill_n(block = new T*[n], n, &zero_page_[0]);
            dir_[b].block = block;
        }
        const std::uint64_t len = page_len(i >> kPageShift);
        T* page = len == kPageSize ? take(spare_pages_) : nullptr;
        if (page == nullptr) page = new T[static_cast<std::size_t>(len)]();
        dir_[b].block[(i >> kPageShift) & kBlockMask] = page;
        ++live_pages_;
        ++dir_[b].pages;
        return page;
    }
    /// Pop a recycled page or block; nullptr when there is none.
    template <typename P>
    static P take(std::vector<P>& spares) {
        if (spares.empty()) return nullptr;
        const P p = spares.back();
        spares.pop_back();
        return p;
    }

    std::uint64_t size_ = 0;
    std::uint64_t live_pages_ = 0;
    struct Slot {
        T** block;           ///< zero_block() when absent
        std::uint64_t pages;  ///< allocated pages in it
    };
    std::vector<Slot> dir_;
    std::vector<T*> spare_pages_;    ///< recycled: all zero, full size
    std::vector<T**> spare_blocks_;  ///< recycled: all zero-page, full size
};

}  // namespace wfqs
