// Discrete-event loop tying traffic sources, a scheduler, and the output
// link together: arrivals are enqueued in time order; whenever the link
// is free and the scheduler holds packets, the next one is transmitted at
// the link rate. Produces the per-packet records the analysis module
// consumes.
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "net/traffic_gen.hpp"
#include "obs/metrics.hpp"
#include "scheduler/scheduler.hpp"

namespace wfqs::obs {
class HostProfiler;
}

namespace wfqs::net {

struct SimResult {
    std::vector<PacketRecord> records;    ///< completed transmissions
    std::uint64_t offered_packets = 0;
    std::uint64_t dropped_packets = 0;
    std::uint64_t sorter_faults = 0;      ///< FaultErrors recovered in-run
    TimeNs last_departure_ns = 0;

    friend bool operator==(const SimResult&, const SimResult&) = default;
};

class SimDriver {
public:
    explicit SimDriver(std::uint64_t link_rate_bps);

    /// Count arrivals/drops/departures and record the per-packet delay
    /// distribution (microseconds) into `registry` under `net.*` during
    /// run(). The registry must outlive the driver's last run.
    void attach_metrics(obs::MetricsRegistry& registry);

    /// Attribute the sequential loop's time to gen/sched/egress stage
    /// sections (see obs::HostProfiler). run() begins and ends the
    /// profiler's run, so a profiler serves one run; null detaches.
    void set_profiler(obs::HostProfiler* profiler) { profiler_ = profiler; }

    /// Registers every flow with the scheduler (in order — flow ids are
    /// the indices of `flows`) and runs to completion: all arrivals
    /// delivered and the scheduler drained. When a Tracer is installed
    /// (obs::Tracer::install), every arrival, drop, and departure is
    /// emitted as an instant event stamped with packet time
    /// (1 trace-us = 1 simulated us).
    SimResult run(scheduler::Scheduler& sched, std::vector<FlowSpec>& flows);

private:
    LinkRate link_;
    obs::MetricsRegistry* metrics_ = nullptr;
    obs::HostProfiler* profiler_ = nullptr;
};

}  // namespace wfqs::net
