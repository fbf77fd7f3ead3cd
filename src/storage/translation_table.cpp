#include "storage/translation_table.hpp"

#include "common/assert.hpp"
#include "common/bits.hpp"

namespace wfqs::storage {
namespace {
// The paper's translation table occupies 8 large banked memory blocks, so
// a lookup and an update (plus neighbouring pipeline traffic) coexist in
// one cycle. The tiered hot cache inherits the same banking.
constexpr unsigned kTablePorts = 4;
}  // namespace

TranslationTable::TranslationTable(const Config& config, hw::Simulation& sim)
    : config_(config),
      tiered_(config.tiered.value_or(config.tag_bits > kFlatTagBitsMax)),
      clock_(sim.clock()),
      sram_([&]() -> hw::Sram& {
          WFQS_REQUIRE(config.tag_bits >= 1 && config.tag_bits <= 32,
                       "translation table covers 1..32 tag bits");
          WFQS_REQUIRE(config.addr_bits >= 1 && config.addr_bits <= 32,
                       "list address width must be 1..32 bits");
          const bool tiered = config.tiered.value_or(config.tag_bits > kFlatTagBitsMax);
          if (!tiered) {
              WFQS_REQUIRE(config.tag_bits <= 28,
                           "flat translation table capped at 2^28 entries; "
                           "use the tiered mode for wider tag spaces");
              return sim.make_sram("translation-table",
                                   std::size_t{1} << config.tag_bits,
                                   config.addr_bits + 1,  // +1 valid bit
                                   kTablePorts);
          }
          WFQS_REQUIRE(config.hot_bits >= 1 && config.hot_bits < config.tag_bits,
                       "hot-cache index must be narrower than the tag");
          const unsigned line_bits =
              1 + config.addr_bits + (config.tag_bits - config.hot_bits);
          WFQS_REQUIRE(line_bits <= 64,
                       "hot-cache line (valid + key + address) must pack into "
                       "one 64-bit word");
          return sim.make_sram("translation-hot",
                               std::size_t{1} << config.hot_bits, line_bits,
                               kTablePorts);
      }()) {
    if (tiered_) hot_mask_ = (std::uint64_t{1} << config_.hot_bits) - 1;
}

std::optional<Addr> TranslationTable::lookup_tiered(std::uint64_t value) {
    const std::uint64_t line = sram_.read(hot_index(value));
    if ((line & 1u) != 0 && (line >> (config_.addr_bits + 1)) == hot_key(value)) {
        ++stats_.hot_hits;
        return static_cast<Addr>((line >> 1) & low_mask(config_.addr_bits));
    }
    // Hot miss: fetch from the bulk tier at DRAM latency, then install
    // the line (the fetched word arrives with the response and is
    // written in its own cycle, inside the stall we just charged).
    ++stats_.bulk_misses;
    for (unsigned c = 0; c < config_.miss_penalty_cycles; ++c) clock_.advance();
    const auto it = bulk_.find(value);
    if (it == bulk_.end()) return std::nullopt;
    sram_.write(hot_index(value), pack_hot(hot_key(value), it->second));
    return it->second;
}

void TranslationTable::set_tiered(std::uint64_t value, Addr addr) {
    bulk_[value] = addr;  // write-through, posted (DRAM write buffer)
    sram_.write(hot_index(value), pack_hot(hot_key(value), addr));
}

void TranslationTable::invalidate_tiered(std::uint64_t value) {
    bulk_.erase(value);  // posted
    const std::uint64_t line = sram_.peek_corrected(hot_index(value));
    if ((line & 1u) != 0 && (line >> (config_.addr_bits + 1)) == hot_key(value))
        sram_.write(hot_index(value), 0);
}

std::optional<Addr> TranslationTable::peek(std::uint64_t value) const {
    WFQS_ASSERT(value < entries());
    if (!tiered_) {
        const std::uint64_t word = sram_.peek_corrected(value);
        if ((word & 1u) == 0) return std::nullopt;
        return static_cast<Addr>(word >> 1);
    }
    const auto it = bulk_.find(value);
    if (it == bulk_.end()) return std::nullopt;
    return it->second;
}

void TranslationTable::poke(std::uint64_t value, std::optional<Addr> addr) {
    WFQS_ASSERT(value < entries());
    if (!tiered_) {
        sram_.poke(value, addr ? (std::uint64_t{*addr} << 1) | 1u : 0);
        return;
    }
    if (addr)
        bulk_[value] = *addr;
    else
        bulk_.erase(value);
    // Keep the hot cache coherent with the authority it fronts.
    const std::uint64_t line = sram_.peek_corrected(hot_index(value));
    if ((line & 1u) != 0 && (line >> (config_.addr_bits + 1)) == hot_key(value))
        sram_.poke(hot_index(value), addr ? pack_hot(hot_key(value), *addr) : 0);
}

void TranslationTable::clear() {
    if (!tiered_) {
        for (std::uint64_t value = 0; value < entries(); ++value) sram_.poke(value, 0);
        return;
    }
    bulk_.clear();
    sram_.wipe();
}

void TranslationTable::for_each_valid(
    const std::function<void(std::uint64_t, Addr)>& fn) const {
    if (!tiered_) {
        sram_.for_each_nonzero_word([&](std::size_t value, std::uint64_t word) {
            if ((word & 1u) != 0) fn(value, static_cast<Addr>(word >> 1));
        });
        return;
    }
    for (const auto& [value, addr] : bulk_) fn(value, addr);
}

std::uint64_t TranslationTable::resident() const {
    if (tiered_) return bulk_.size();
    std::uint64_t n = 0;
    sram_.for_each_nonzero_word([&](std::size_t, std::uint64_t word) {
        if ((word & 1u) != 0) ++n;
    });
    return n;
}

}  // namespace wfqs::storage
