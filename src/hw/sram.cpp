#include "hw/sram.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/bits.hpp"
#include "fault/errors.hpp"
#include "fault/injector.hpp"

namespace wfqs::hw {

Sram::Sram(std::string name, std::size_t num_words, unsigned word_bits, Clock& clock,
           unsigned ports, SramStats* totals)
    : name_(std::move(name)),
      word_bits_(word_bits),
      word_mask_(low_mask(word_bits)),
      clock_(clock),
      ports_(ports),
      num_words_(num_words),
      paged_(num_words > kPagedThreshold) {
    WFQS_REQUIRE(num_words > 0, "SRAM must have at least one word");
    WFQS_REQUIRE(word_bits >= 1 && word_bits <= 64, "SRAM word width must be 1..64");
    WFQS_REQUIRE(ports >= 1, "SRAM needs at least one port");
    if (totals != nullptr) totals_ = totals;
    if (paged_)
        page_dir_.assign(ceil_div(num_words, kPageWords), nullptr);
    else
        words_.assign(num_words, 0);
}

void Sram::check_addr(std::size_t addr, const char* op) const {
    if (addr < num_words_) return;
    throw fault::SramAddressError(name_, addr,
                                  "SRAM '" + name_ + "' " + op + " out of range: address " +
                                      std::to_string(addr) + " >= " +
                                      std::to_string(num_words_));
}

void Sram::throw_port_conflict() const {
    throw fault::SramPortConflict(
        name_, "SRAM port conflict on '" + name_ + "': more than " +
                   std::to_string(ports_) + " accesses in cycle " +
                   std::to_string(clock_.now()));
}

void Sram::reset_stats() {
    totals_->reads -= stats_.reads;
    totals_->writes -= stats_.writes;
    totals_->flash_clears -= stats_.flash_clears;
    totals_->ecc_corrected -= stats_.ecc_corrected;
    totals_->ecc_uncorrectable -= stats_.ecc_uncorrectable;
    stats_ = {};
}

void Sram::inject(std::size_t addr) {
    if (injector_ != nullptr) injector_->on_access(*this, addr);
}

// ------------------------------------------------------- backing helpers

Sram::Page& Sram::touch_page(std::size_t page_index) {
    Page*& slot = page_dir_[page_index];
    if (slot == nullptr) {
        Page& page = pages_[page_index];
        page.data.assign(kPageWords, 0);
        if (paged_protected_) page.check.assign(kPageWords, zero_check_);
        slot = &page;
    }
    return *slot;
}

void Sram::drop_page(std::size_t page_index) {
    if (page_dir_[page_index] == nullptr) return;
    page_dir_[page_index] = nullptr;
    pages_.erase(page_index);
}

std::uint64_t Sram::raw_word(std::size_t addr) const {
    if (!paged_) return words_[addr];
    const Page* page = find_page(addr / kPageWords);
    return page == nullptr ? 0 : page->data[addr % kPageWords];
}

std::uint64_t Sram::raw_check(std::size_t addr) const {
    if (!paged_) return check_words_.empty() ? 0 : check_words_[addr];
    if (!paged_protected_) return 0;
    const Page* page = find_page(addr / kPageWords);
    return page == nullptr ? zero_check_ : page->check[addr % kPageWords];
}

void Sram::store_word(std::size_t addr, std::uint64_t data) {
    if (!paged_) {
        words_[addr] = data;
        return;
    }
    touch_page(addr / kPageWords).data[addr % kPageWords] = data;
}

void Sram::store_check(std::size_t addr, std::uint64_t check) {
    if (!paged_) {
        check_words_[addr] = check;
        return;
    }
    touch_page(addr / kPageWords).check[addr % kPageWords] = check;
}

// ----------------------------------------------------------- slow lanes

std::uint64_t Sram::read_slow(std::size_t addr) {
    check_addr(addr, "read");
    charge_port();
    bump(&SramStats::reads);
    inject(addr);
    if (!protected_()) return raw_word(addr);
    const fault::Decoded decoded = codec_.decode(raw_word(addr), raw_check(addr));
    switch (decoded.status) {
        case fault::DecodeStatus::kClean:
            break;
        case fault::DecodeStatus::kCorrected:
            // Scrub-on-read: write the corrected word back so the upset
            // does not accumulate into a double error.
            bump(&SramStats::ecc_corrected);
            store_word(addr, decoded.data);
            store_check(addr, decoded.check);
            break;
        case fault::DecodeStatus::kUncorrectable:
            bump(&SramStats::ecc_uncorrectable);
            throw fault::UncorrectableEccError(name_, addr);
    }
    return decoded.data;
}

void Sram::write_slow(std::size_t addr, std::uint64_t value) {
    check_addr(addr, "write");
    charge_port();
    bump(&SramStats::writes);
    const std::uint64_t masked = value & word_mask_;
    store_word(addr, masked);
    if (protected_()) store_check(addr, codec_.encode(masked));
    inject(addr);
}

void Sram::flash_clear(std::size_t addr, std::size_t count) {
    if (count > num_words_ || addr > num_words_ - count) {
        throw fault::SramAddressError(
            name_, addr, "SRAM '" + name_ + "' flash_clear out of range: [" +
                             std::to_string(addr) + ", " + std::to_string(addr + count) +
                             ") exceeds " + std::to_string(num_words_) + " words");
    }
    charge_port();
    bump(&SramStats::flash_clears);
    if (!paged_) {
        std::fill_n(words_.begin() + static_cast<std::ptrdiff_t>(addr), count, 0);
        if (!check_words_.empty()) {
            const std::uint64_t zero_check = codec_.encode(0);
            std::fill_n(check_words_.begin() + static_cast<std::ptrdiff_t>(addr), count,
                        zero_check);
        }
    } else if (count > 0) {
        // Fully-covered pages drop back to the absent (all-zero) state;
        // partially-covered ones are zeroed in place.
        const std::size_t last = addr + count - 1;
        for (std::size_t p = addr / kPageWords; p <= last / kPageWords; ++p) {
            const std::size_t page_lo = p * kPageWords;
            const std::size_t lo = std::max(addr, page_lo);
            const std::size_t hi = std::min(last, page_lo + kPageWords - 1);
            if (lo == page_lo && hi == page_lo + kPageWords - 1) {
                drop_page(p);
                continue;
            }
            Page* page = find_page(p);
            if (page == nullptr) continue;  // already all-zero
            std::fill(page->data.begin() + static_cast<std::ptrdiff_t>(lo - page_lo),
                      page->data.begin() + static_cast<std::ptrdiff_t>(hi - page_lo) + 1,
                      0);
            if (paged_protected_)
                std::fill(page->check.begin() + static_cast<std::ptrdiff_t>(lo - page_lo),
                          page->check.begin() + static_cast<std::ptrdiff_t>(hi - page_lo) + 1,
                          zero_check_);
        }
    }
    if (count > 0) inject(addr);
}

void Sram::enable_protection(fault::Protection protection) {
    codec_ = fault::EccCodec(protection, word_bits_);
    if (protection == fault::Protection::kNone) {
        check_words_.clear();
        paged_protected_ = false;
        zero_check_ = 0;
        for (auto& [index, page] : pages_) page.check.clear();
    } else if (!paged_) {
        check_words_.resize(words_.size());
        for (std::size_t addr = 0; addr < words_.size(); ++addr)
            check_words_[addr] = codec_.encode(words_[addr]);
    } else {
        paged_protected_ = true;
        zero_check_ = codec_.encode(0);
        for (auto& [index, page] : pages_) {
            page.check.resize(kPageWords);
            for (std::size_t i = 0; i < kPageWords; ++i)
                page.check[i] = codec_.encode(page.data[i]);
        }
    }
    update_fast_path();
}

void Sram::corrupt(std::size_t addr, std::uint64_t data_xor, std::uint64_t check_xor) {
    check_addr(addr, "corrupt");
    store_word(addr, raw_word(addr) ^ (data_xor & word_mask_));
    if (protected_()) store_check(addr, raw_check(addr) ^ check_xor);
}

void Sram::relaunder() {
    if (!protected_()) return;
    const auto launder_one = [&](std::size_t addr, std::uint64_t data,
                                 std::uint64_t check) {
        const fault::Decoded d = codec_.decode(data, check);
        switch (d.status) {
            case fault::DecodeStatus::kClean:
                break;
            case fault::DecodeStatus::kCorrected:
                bump(&SramStats::ecc_corrected);
                store_word(addr, d.data);
                store_check(addr, d.check);
                break;
            case fault::DecodeStatus::kUncorrectable:
                bump(&SramStats::ecc_uncorrectable);
                store_check(addr, codec_.encode(data));
                break;
        }
    };
    if (!paged_) {
        for (std::size_t addr = 0; addr < words_.size(); ++addr)
            launder_one(addr, words_[addr], check_words_[addr]);
        return;
    }
    // Absent pages are consistent (zero data, zero check) by construction.
    for (auto& [index, page] : pages_)
        for (std::size_t i = 0; i < kPageWords; ++i)
            launder_one(index * kPageWords + i, page.data[i], page.check[i]);
}

void Sram::poke(std::size_t addr, std::uint64_t value) {
    check_addr(addr, "poke");
    const std::uint64_t masked = value & word_mask_;
    // Poking zero into an absent page is already the stored state; skip
    // the allocation so repair sweeps cannot densify a paged block.
    if (paged_ && masked == 0 && find_page(addr / kPageWords) == nullptr) return;
    store_word(addr, masked);
    if (protected_()) store_check(addr, codec_.encode(masked));
}

void Sram::wipe() {
    if (!paged_) {
        std::fill(words_.begin(), words_.end(), 0);
        if (!check_words_.empty())
            std::fill(check_words_.begin(), check_words_.end(), codec_.encode(0));
        return;
    }
    for (const auto& [index, page] : pages_) page_dir_[index] = nullptr;
    pages_.clear();
}

std::uint64_t Sram::peek(std::size_t addr) const {
    check_addr(addr, "peek");
    return raw_word(addr);
}

std::uint64_t Sram::peek_check(std::size_t addr) const {
    check_addr(addr, "peek_check");
    return raw_check(addr);
}

std::uint64_t Sram::peek_corrected_slow(std::size_t addr) const {
    check_addr(addr, "peek_corrected");
    if (!protected_()) return raw_word(addr);
    return codec_.decode(raw_word(addr), raw_check(addr)).data;
}

void Sram::for_each_nonzero_word(
    const std::function<void(std::size_t, std::uint64_t)>& fn) const {
    for_each_nonzero_word_in_range(0, num_words_, fn);
}

void Sram::for_each_nonzero_word_in_range(
    std::size_t first, std::size_t count,
    const std::function<void(std::size_t, std::uint64_t)>& fn) const {
    if (count == 0) return;
    WFQS_REQUIRE(count <= num_words_ && first <= num_words_ - count,
                 "for_each_nonzero_word range out of bounds");
    const bool prot = protected_();
    const auto visit = [&](std::size_t addr, std::uint64_t data,
                           std::uint64_t check) {
        const std::uint64_t word = prot ? codec_.decode(data, check).data : data;
        if (word != 0) fn(addr, word);
    };
    if (!paged_) {
        for (std::size_t addr = first; addr < first + count; ++addr)
            visit(addr, words_[addr], check_words_.empty() ? 0 : check_words_[addr]);
        return;
    }
    const std::size_t last = first + count - 1;
    for (std::size_t p = first / kPageWords; p <= last / kPageWords; ++p) {
        const Page* page = find_page(p);
        if (page == nullptr) continue;
        const std::size_t page_lo = p * kPageWords;
        const std::size_t lo = std::max(first, page_lo) - page_lo;
        const std::size_t hi = std::min(last, page_lo + kPageWords - 1) - page_lo;
        for (std::size_t i = lo; i <= hi; ++i)
            visit(page_lo + i, page->data[i],
                  page->check.empty() ? 0 : page->check[i]);
    }
}

}  // namespace wfqs::hw
