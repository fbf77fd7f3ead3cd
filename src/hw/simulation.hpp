// Simulation context: one clock plus an inventory of every memory block a
// circuit instantiates.
//
// The inventory is what the Table II area/power model walks: each SRAM
// contributes capacity-proportional area and access-proportional dynamic
// energy, mirroring how the paper's layout is dominated by the translation
// table blocks and the level-3 tree memory.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hw/clock.hpp"
#include "hw/sram.hpp"

namespace wfqs::obs {
class MetricsRegistry;
}

namespace wfqs::hw {

class Simulation {
public:
    Simulation() = default;
    /// Every block holds a reference to the clock and a pointer to the
    /// running totals, so a Simulation stays where it was built.
    Simulation(const Simulation&) = delete;
    Simulation& operator=(const Simulation&) = delete;

    Clock& clock() { return clock_; }
    const Clock& clock() const { return clock_; }

    /// Create an SRAM owned by this simulation and tracked in the inventory.
    /// The current name prefix (below) is prepended to `name`.
    Sram& make_sram(std::string name, std::size_t num_words, unsigned word_bits,
                    unsigned ports = 1);

    /// Scope every subsequently created SRAM name with `prefix` (e.g.
    /// "bank3." while a sharded sorter instantiates bank 3), so multi-bank
    /// circuits keep a collision-free inventory. Empty string clears it.
    void set_sram_name_prefix(std::string prefix) { name_prefix_ = std::move(prefix); }
    const std::string& sram_name_prefix() const { return name_prefix_; }

    const std::vector<std::unique_ptr<Sram>>& memories() const { return memories_; }

    /// Memory block by name; nullptr when absent. Used by fault models and
    /// tests to target a specific structure (e.g. the tag-store SRAM).
    Sram* find_memory(const std::string& name);

    /// Turn on word protection for every memory created so far *and* any
    /// created later (the setting is sticky).
    void enable_protection(fault::Protection protection);
    fault::Protection protection() const { return protection_; }

    /// Attach a fault injector to every memory created so far and any
    /// created later; nullptr detaches.
    void attach_fault_injector(fault::FaultInjector* injector);

    /// Aggregate statistics across every memory block: a running total
    /// every block bumps alongside its own counters, so this is O(1).
    SramStats total_memory_stats() const { return totals_; }
    std::uint64_t total_memory_bits() const;

    /// Expose the whole inventory to a metrics registry as read-through
    /// views: `<prefix>.<sram-name>.{reads,writes,flash_clears,
    /// peak_per_cycle,capacity_bits}` per block, `<prefix>.total.*`
    /// aggregates, and `hw.cycles` for the clock. Snapshot-time sampling —
    /// the datapath is untouched. The registry must not outlive this
    /// simulation. Memories created after the call are not covered;
    /// register after circuit construction.
    void register_metrics(obs::MetricsRegistry& registry,
                          const std::string& prefix = "sram") const;

    void reset_stats();

private:
    Clock clock_;
    std::string name_prefix_;
    std::vector<std::unique_ptr<Sram>> memories_;
    SramStats totals_;  ///< running sum of every block's stats
    fault::Protection protection_ = fault::Protection::kNone;
    fault::FaultInjector* injector_ = nullptr;
};

}  // namespace wfqs::hw
