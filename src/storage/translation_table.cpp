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
          if (!tiered_) {
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
      }()),
      bulk_(tiered_ ? entries() : 0) {
    if (tiered_) hot_mask_ = (std::uint64_t{1} << config_.hot_bits) - 1;
}

std::optional<Addr> TranslationTable::lookup_tiered(std::uint64_t value) {
    const std::uint64_t line = sram_.read(hot_index(value));
    if (hot_holds(line, value)) {
        ++stats_.hot_hits;
        return static_cast<Addr>((line >> 1) & low_mask(config_.addr_bits));
    }
    // Hot miss: fetch from the bulk tier at DRAM latency, then install
    // the line (the fetched word arrives with the response and is
    // written in its own cycle, inside the stall we just charged).
    ++stats_.bulk_misses;
    for (unsigned c = 0; c < config_.miss_penalty_cycles; ++c) clock_.advance();
    const std::optional<Addr> addr = unpack(bulk_.get(value));
    if (addr) sram_.write(hot_index(value), pack_hot(hot_key(value), *addr));
    return addr;
}

void TranslationTable::store_bulk(std::uint64_t value, std::uint64_t word) {
    resident_ -= bulk_.get(value) & 1u;
    resident_ += word & 1u;
    if (word != 0)
        bulk_.set(value, word);
    else
        bulk_.erase(value);  // frees the page with its last valid entry
}

void TranslationTable::set_tiered(std::uint64_t value, Addr addr) {
    store_bulk(value, pack(addr));  // write-through, posted (DRAM write buffer)
    sram_.write(hot_index(value), pack_hot(hot_key(value), addr));
}

void TranslationTable::invalidate_tiered(std::uint64_t value) {
    store_bulk(value, 0);  // posted
    const std::uint64_t line = sram_.peek_corrected(hot_index(value));
    if (hot_holds(line, value)) sram_.write(hot_index(value), 0);
}

std::optional<Addr> TranslationTable::peek(std::uint64_t value) const {
    WFQS_ASSERT(value < entries());
    return unpack(tiered_ ? bulk_.get(value) : sram_.peek_corrected(value));
}

void TranslationTable::poke(std::uint64_t value, std::optional<Addr> addr) {
    WFQS_ASSERT(value < entries());
    const std::uint64_t word = addr ? pack(*addr) : 0;
    if (!tiered_) {
        sram_.poke(value, word);
        return;
    }
    store_bulk(value, word);
    // Keep the hot cache coherent with the authority it fronts.
    const std::uint64_t line = sram_.peek_corrected(hot_index(value));
    if (hot_holds(line, value))
        sram_.poke(hot_index(value), addr ? pack_hot(hot_key(value), *addr) : 0);
}

void TranslationTable::clear() {
    bulk_.clear();
    resident_ = 0;
    sram_.wipe();
}

void TranslationTable::for_each_valid(
    const std::function<void(std::uint64_t, Addr)>& fn) const {
    const auto visit = [&](std::uint64_t value, std::uint64_t word) {
        if (const std::optional<Addr> addr = unpack(word)) fn(value, *addr);
    };
    if (tiered_)
        bulk_.for_each_nonzero(visit);
    else
        sram_.for_each_nonzero_word(visit);
}

std::uint64_t TranslationTable::resident() const {
    if (tiered_) return resident_;
    std::uint64_t n = 0;
    for_each_valid([&](std::uint64_t, Addr) { ++n; });
    return n;
}

}  // namespace wfqs::storage
