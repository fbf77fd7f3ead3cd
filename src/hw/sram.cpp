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
      paged_(num_words > kPagedThreshold),
      paged_words_(paged_ ? num_words : 0),
      checks_(num_words) {
    WFQS_REQUIRE(num_words > 0, "SRAM must have at least one word");
    WFQS_REQUIRE(word_bits >= 1 && word_bits <= 64, "SRAM word width must be 1..64");
    WFQS_REQUIRE(ports >= 1, "SRAM needs at least one port");
    if (totals != nullptr) totals_ = totals;
    if (!paged_) words_.assign(num_words, 0);
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
    if (paged_)
        paged_words_.clear_range(addr, count);
    else
        std::fill_n(words_.begin() + static_cast<std::ptrdiff_t>(addr), count, 0);
    checks_.clear_range(addr, count);
    if (count > 0) inject(addr);
}

void Sram::enable_protection(fault::Protection protection) {
    codec_ = fault::EccCodec(protection, word_bits_);
    zero_check_ = codec_.encode(0);
    checks_.clear();
    if (protected_())
        visit_candidates(0, num_words_, [&](std::size_t addr) {
            store_check(addr, codec_.encode(raw_word(addr)));
        });
    update_fast_path();
}

void Sram::corrupt(std::size_t addr, std::uint64_t data_xor, std::uint64_t check_xor) {
    check_addr(addr, "corrupt");
    store_word(addr, raw_word(addr) ^ (data_xor & word_mask_));
    if (protected_()) store_check(addr, raw_check(addr) ^ check_xor);
}

void Sram::relaunder() {
    if (!protected_()) return;
    visit_candidates(0, num_words_, [&](std::size_t addr) {
        const std::uint64_t data = raw_word(addr);
        const fault::Decoded d = codec_.decode(data, raw_check(addr));
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
    });
}

void Sram::poke(std::size_t addr, std::uint64_t value) {
    check_addr(addr, "poke");
    // A zero poked into an unwritten page allocates nothing.
    const std::uint64_t masked = value & word_mask_;
    store_word(addr, masked);
    if (protected_()) store_check(addr, codec_.encode(masked));
}

void Sram::wipe() {
    paged_words_.clear();
    checks_.clear();
    std::fill(words_.begin(), words_.end(), 0);
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

void Sram::for_each_nonzero_word_in_range(
    std::size_t first, std::size_t count,
    const std::function<void(std::size_t, std::uint64_t)>& fn) const {
    if (count == 0) return;
    WFQS_REQUIRE(count <= num_words_ && first <= num_words_ - count,
                 "for_each_nonzero_word range out of bounds");
    const bool prot = protected_();
    visit_candidates(first, count, [&](std::size_t addr) {
        const std::uint64_t data = raw_word(addr);
        const std::uint64_t word = prot ? codec_.decode(data, raw_check(addr)).data : data;
        if (word != 0) fn(addr, word);
    });
}

template <typename Fn>
void Sram::visit_candidates(std::size_t first, std::size_t count, Fn&& fn) const {
    if (!paged_) {
        for (std::size_t addr = first; addr < first + count; ++addr) fn(addr);
        return;
    }
    // Zero-data words with a nonzero stored check (upset check bits) are
    // gathered first and merged into the walk over nonzero data words.
    std::vector<std::size_t> check_only;
    checks_.for_each_nonzero(first, count, [&](std::uint64_t addr, std::uint64_t) {
        if (paged_words_.get(addr) == 0) check_only.push_back(addr);
    });
    check_only.push_back(first + count);  // sentinel
    auto next = check_only.begin();
    paged_words_.for_each_nonzero(first, count, [&](std::uint64_t addr, std::uint64_t) {
        for (; *next < addr; ++next) fn(*next);
        fn(addr);
    });
    for (; *next < first + count; ++next) fn(*next);
}

}  // namespace wfqs::hw
