#include "net/sim_driver.hpp"

#include <algorithm>
#include <queue>

#include "common/assert.hpp"
#include "fault/errors.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/profiler.hpp"
#include "obs/tracer.hpp"

namespace wfqs::net {
namespace {

constexpr double ns_to_trace_us(TimeNs t) { return static_cast<double>(t) / 1000.0; }

struct PendingArrival {
    TimeNs time;
    std::size_t source;  ///< flow index
    std::uint32_t size_bytes;
    std::uint64_t seq;   ///< tie-break: stable across sources

    bool operator>(const PendingArrival& o) const {
        return time != o.time ? time > o.time : seq > o.seq;
    }
};

}  // namespace

SimDriver::SimDriver(std::uint64_t link_rate_bps) : rate_(link_rate_bps) {
    WFQS_REQUIRE(link_rate_bps > 0, "link rate must be positive");
}

void SimDriver::attach_metrics(obs::MetricsRegistry& registry) {
    metrics_ = &registry;
    // Create the metrics up front so an idle run still exports them.
    registry.counter("net.offered_packets");
    registry.counter("net.dropped_packets");
    registry.counter("net.delivered_packets");
    registry.counter("net.sorter_faults");
    // Delay distribution: 0–10 ms in 10 µs bins (outliers clamp into the
    // last bin; exact min/mean/max come from the embedded RunningStats).
    registry.histogram("net.delay_us", 0.0, 10'000.0, 1000);
}

SimResult SimDriver::run(scheduler::Scheduler& sched, std::vector<FlowSpec>& flows) {
    SimResult result;
    // Resolve metric handles once; the per-packet path must not pay a
    // name lookup.
    obs::Counter* m_offered = metrics_ ? &metrics_->counter("net.offered_packets") : nullptr;
    obs::Counter* m_dropped = metrics_ ? &metrics_->counter("net.dropped_packets") : nullptr;
    obs::Counter* m_delivered =
        metrics_ ? &metrics_->counter("net.delivered_packets") : nullptr;
    obs::Counter* m_faults = metrics_ ? &metrics_->counter("net.sorter_faults") : nullptr;
    obs::CycleHistogram* m_delay = metrics_ ? &metrics_->histogram("net.delay_us") : nullptr;
    // Stage-section attribution (obs::HostProfiler): every iteration
    // counts its stages' items; a timed one (1 in 64) reads the clock at
    // each stage boundary. Without a profiler a boundary only tests a
    // pointer and a flag.
    using Stage = obs::HostProfiler::Stage;
    obs::HostProfiler* const prof = profiler_;
    bool timed = false;
    const auto stage_done = [&](Stage s) {
        if (prof) prof->count(s);
        if (timed) prof->lap(s);
    };
    if (prof) prof->begin_run();
    std::priority_queue<PendingArrival, std::vector<PendingArrival>,
                        std::greater<PendingArrival>>
        arrivals;
    std::uint64_t seq = 0;

    for (std::size_t i = 0; i < flows.size(); ++i) {
        const net::FlowId id = sched.add_flow(flows[i].weight);
        WFQS_ASSERT_MSG(id == i, "scheduler must number flows sequentially");
        if (const auto a = flows[i].source->next())
            arrivals.push(PendingArrival{a->time_ns, i, a->size_bytes, seq++});
    }

    std::uint64_t next_packet_id = 0;
    TimeNs link_free_at = 0;
    TimeNs now = 0;

    // Fault recovery: a FaultError from the scheduler's sorter is survivable
    // when the scheduler has a scrub path — recover, note a trace instant,
    // and retry the operation. Recovery that fails (or faults that strike
    // faster than scrubbing can keep up with) propagate to the caller.
    constexpr int kMaxRecoveries = 3;
    const auto note_fault = [&](TimeNs at) {
        ++result.sorter_faults;
        WFQS_TRACE_INSTANT("sorter-fault", "net", ns_to_trace_us(at));
        obs::flight_record(obs::FlightEventKind::kFault, static_cast<double>(at));
        if (m_faults) m_faults->inc();
    };
    const auto note_recovery = [](TimeNs at, int attempt) {
        // a = retry attempt (1-based): repeated recoveries at one
        // timestamp read as an escalating sequence in the flight dump.
        obs::flight_record(obs::FlightEventKind::kRecovery,
                           static_cast<double>(at), attempt + 1);
    };

    auto deliver_next_arrival = [&] {
        const PendingArrival a = arrivals.top();
        arrivals.pop();
        if (const auto next = flows[a.source].source->next()) {
            WFQS_ASSERT_MSG(next->time_ns >= a.time,
                            "traffic source went backwards in time");
            arrivals.push(
                PendingArrival{next->time_ns, a.source, next->size_bytes, seq++});
        }
        stage_done(Stage::kGen);
        now = std::max(now, a.time);
        const Packet pkt{next_packet_id++, static_cast<FlowId>(a.source),
                         a.size_bytes, a.time};
        // Arrival-side result/metric recording is bookkeeping, not
        // generation: a timed iteration charges it to the egress section.
        ++result.offered_packets;
        WFQS_TRACE_INSTANT("arrival", "net", ns_to_trace_us(a.time));
        if (m_offered) m_offered->inc();
        if (timed) prof->lap(Stage::kEgress);
        bool accepted = false;
        for (int attempt = 0;; ++attempt) {
            try {
                accepted = sched.enqueue(pkt, a.time);
                break;
            } catch (const fault::FaultError&) {
                note_fault(a.time);
                if (attempt >= kMaxRecoveries || !sched.recover()) throw;
                note_recovery(a.time, attempt);
            }
        }
        if (timed) prof->lap(Stage::kSched);
        if (!accepted) {
            ++result.dropped_packets;
            WFQS_TRACE_INSTANT("drop", "net", ns_to_trace_us(a.time));
            if (m_dropped) m_dropped->inc();
        }
    };

    while (!arrivals.empty() || sched.has_packets()) {
        timed = prof && prof->begin_iteration();
        if (!sched.has_packets()) {
            deliver_next_arrival();
            continue;
        }
        const TimeNs service_start = std::max(link_free_at, now);
        // Arrivals up to the service decision take part in it.
        if (!arrivals.empty() && arrivals.top().time <= service_start) {
            deliver_next_arrival();
            continue;
        }
        std::optional<Packet> pkt;
        bool faulted = false;
        for (int attempt = 0;; ++attempt) {
            try {
                pkt = sched.dequeue(service_start);
                break;
            } catch (const fault::FaultError&) {
                faulted = true;
                note_fault(service_start);
                if (attempt >= kMaxRecoveries || !sched.recover()) throw;
                note_recovery(service_start, attempt);
            }
        }
        if (!pkt) {
            // A recovery can legally shrink the queue (a rebuild lost the
            // entry that was about to be served); re-evaluate the loop.
            WFQS_ASSERT_MSG(faulted, "scheduler claimed packets but gave none");
            continue;
        }
        stage_done(Stage::kSched);
        const TimeNs done = service_start + transmission_ns(pkt->size_bytes, rate_);
        result.records.push_back(PacketRecord{*pkt, service_start, done});
        WFQS_TRACE_INSTANT("departure", "net", ns_to_trace_us(done));
        if (m_delivered) {
            m_delivered->inc();
            m_delay->record(static_cast<double>(done - pkt->arrival_ns) / 1000.0);
        }
        result.last_departure_ns = done;
        link_free_at = done;
        stage_done(Stage::kEgress);
    }
    if (prof) prof->end_run();
    return result;
}

}  // namespace wfqs::net
