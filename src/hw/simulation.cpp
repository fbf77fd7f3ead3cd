#include "hw/simulation.hpp"

#include "obs/metrics.hpp"

namespace wfqs::hw {

Sram& Simulation::make_sram(std::string name, std::size_t num_words, unsigned word_bits,
                            unsigned ports) {
    memories_.push_back(std::make_unique<Sram>(name_prefix_ + std::move(name),
                                               num_words, word_bits, clock_, ports,
                                               &totals_));
    Sram& sram = *memories_.back();
    if (protection_ != fault::Protection::kNone) sram.enable_protection(protection_);
    if (injector_ != nullptr) sram.set_fault_injector(injector_);
    return sram;
}

Sram* Simulation::find_memory(const std::string& name) {
    for (const auto& m : memories_)
        if (m->name() == name) return m.get();
    return nullptr;
}

void Simulation::enable_protection(fault::Protection protection) {
    protection_ = protection;
    for (const auto& m : memories_) m->enable_protection(protection);
}

void Simulation::attach_fault_injector(fault::FaultInjector* injector) {
    injector_ = injector;
    for (const auto& m : memories_) m->set_fault_injector(injector);
}

std::uint64_t Simulation::total_memory_bits() const {
    std::uint64_t bits = 0;
    for (const auto& m : memories_) bits += m->bit_capacity();
    return bits;
}

void Simulation::reset_stats() {
    for (const auto& m : memories_) m->reset_stats();
    totals_ = {};
}

void Simulation::register_metrics(obs::MetricsRegistry& registry,
                                  const std::string& prefix) const {
    registry.register_counter_fn("hw.cycles", [this] { return clock_.now(); });
    for (const auto& owned : memories_) {
        const Sram* m = owned.get();
        const std::string base = prefix + "." + m->name() + ".";
        registry.register_counter_fn(base + "reads",
                                     [m] { return m->stats().reads; });
        registry.register_counter_fn(base + "writes",
                                     [m] { return m->stats().writes; });
        registry.register_counter_fn(base + "flash_clears",
                                     [m] { return m->stats().flash_clears; });
        registry.register_counter_fn(base + "peak_per_cycle", [m] {
            return static_cast<std::uint64_t>(m->peak_accesses_per_cycle());
        });
        registry.register_counter_fn(base + "capacity_bits",
                                     [m] { return m->bit_capacity(); });
        if (m->protection() != fault::Protection::kNone) {
            registry.register_counter_fn(base + "ecc_corrected",
                                         [m] { return m->stats().ecc_corrected; });
            registry.register_counter_fn(base + "ecc_uncorrectable",
                                         [m] { return m->stats().ecc_uncorrectable; });
        }
    }
    registry.register_counter_fn(prefix + ".total.accesses", [this] {
        return total_memory_stats().total();
    });
    if (protection_ != fault::Protection::kNone) {
        registry.register_counter_fn(prefix + ".total.ecc_corrected", [this] {
            return total_memory_stats().ecc_corrected;
        });
        registry.register_counter_fn(prefix + ".total.ecc_uncorrectable", [this] {
            return total_memory_stats().ecc_uncorrectable;
        });
    }
    registry.register_counter_fn(prefix + ".total.capacity_bits",
                                 [this] { return total_memory_bits(); });
}

}  // namespace wfqs::hw
