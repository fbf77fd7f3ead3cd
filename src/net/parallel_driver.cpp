#include "net/parallel_driver.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <memory>
#include <queue>
#include <thread>

#include "common/assert.hpp"
#include "fault/errors.hpp"
#include "net/spsc_ring.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/profiler.hpp"
#include "obs/tracer.hpp"

namespace wfqs::net {
namespace {

constexpr double ns_to_trace_us(TimeNs t) { return static_cast<double>(t) / 1000.0; }

// Batch/ring sizing: batches big enough to amortize the ring's release
// store and the consumer's cache-miss burst, rings a few batches deep so
// stages ride out each other's jitter.
constexpr std::size_t kGenBatch = 128;
constexpr std::size_t kMergeBatch = 256;
constexpr std::size_t kSchedBatch = 256;
constexpr std::size_t kSchedBatchMin = 32;
constexpr std::size_t kEgressBatch = 256;
constexpr std::size_t kFlowRingCap = 1024;
constexpr std::size_t kMergedRingCap = 4096;
constexpr std::size_t kEgressRingCap = 4096;

/// Mirror of SimDriver's pending-arrival heap node: the merge stage
/// replays the identical (time, seq) discipline.
struct PendingArrival {
    TimeNs time;
    std::size_t source;
    std::uint32_t size_bytes;
    std::uint64_t seq;

    bool operator>(const PendingArrival& o) const {
        return time != o.time ? time > o.time : seq > o.seq;
    }
};

/// One result/metric side effect of the schedule stage, applied by the
/// egress stage in emission order (= the sequential loop's order).
struct EgressEvent {
    enum Kind : std::uint8_t { kArrival, kDrop, kFault, kDeparture };
    Kind kind;
    Packet pkt;  ///< kArrival, kDeparture
    TimeNs t0;   ///< kDrop/kFault: event time; kDeparture: service start
    TimeNs t1;   ///< kDeparture: link-done time
};

/// Applies egress events exactly as the sequential loop would have, in
/// the order it would have: vector appends, counters, the delay
/// histogram (same floating-point accumulation order), trace instants.
class EgressSink {
public:
    EgressSink(SimResult& result, obs::MetricsRegistry* metrics,
               obs::HostProfiler::StageCounters* prof)
        : result_(result), prof_(prof) {
        if (metrics) {
            m_offered_ = &metrics->counter("net.offered_packets");
            m_dropped_ = &metrics->counter("net.dropped_packets");
            m_delivered_ = &metrics->counter("net.delivered_packets");
            m_faults_ = &metrics->counter("net.sorter_faults");
            m_delay_ = &metrics->histogram("net.delay_us");
        }
    }

    void apply(const EgressEvent& e) {
        if (prof_) prof_->add_items(1);
        switch (e.kind) {
            case EgressEvent::kArrival:
                result_.all_arrivals.push_back(e.pkt);
                ++result_.offered_packets;
                WFQS_TRACE_INSTANT("arrival", "net", ns_to_trace_us(e.pkt.arrival_ns));
                if (m_offered_) m_offered_->inc();
                break;
            case EgressEvent::kDrop:
                ++result_.dropped_packets;
                WFQS_TRACE_INSTANT("drop", "net", ns_to_trace_us(e.t0));
                if (m_dropped_) m_dropped_->inc();
                break;
            case EgressEvent::kFault:
                ++result_.sorter_faults;
                WFQS_TRACE_INSTANT("sorter-fault", "net", ns_to_trace_us(e.t0));
                if (m_faults_) m_faults_->inc();
                break;
            case EgressEvent::kDeparture:
                result_.records.push_back(PacketRecord{e.pkt, e.t0, e.t1});
                WFQS_TRACE_INSTANT("departure", "net", ns_to_trace_us(e.t1));
                if (m_delivered_) {
                    m_delivered_->inc();
                    m_delay_->record(static_cast<double>(e.t1 - e.pkt.arrival_ns) /
                                     1000.0);
                }
                result_.last_departure_ns = e.t1;
                break;
        }
    }

private:
    SimResult& result_;
    obs::HostProfiler::StageCounters* prof_;
    obs::Counter* m_offered_ = nullptr;
    obs::Counter* m_dropped_ = nullptr;
    obs::Counter* m_delivered_ = nullptr;
    obs::Counter* m_faults_ = nullptr;
    obs::CycleHistogram* m_delay_ = nullptr;
};

/// Schedule-stage emitter: inline into the sink when egress shares the
/// calling thread, batched into the egress ring otherwise.
class EgressEmitter {
public:
    EgressEmitter(EgressSink* inline_sink, SpscRing<EgressEvent>* ring,
                  const std::atomic<bool>& abort)
        : sink_(inline_sink), ring_(ring), abort_(abort) {}

    void emit(const EgressEvent& e) {
        if (sink_) {
            sink_->apply(e);
            return;
        }
        buf_[n_++] = e;
        if (n_ == kEgressBatch) flush();
    }

    /// Drain the local batch; called before the schedule stage blocks so
    /// completed packets never sit behind a stalled input.
    void flush() {
        if (!sink_ && n_ != 0) {
            ring_->push_all(buf_, n_, abort_);
            n_ = 0;
        }
    }

    void finish() {
        flush();
        if (ring_) ring_->close();
    }

private:
    EgressSink* sink_;
    SpscRing<EgressEvent>* ring_;
    const std::atomic<bool>& abort_;
    EgressEvent buf_[kEgressBatch];
    std::size_t n_ = 0;
};

/// The merge stage: replays SimDriver's priority-queue discipline over
/// per-flow arrival streams, assigning seq numbers and packet ids in the
/// identical order, and emits fully-formed Packets time-ordered.
template <typename NextFn>
void run_merge(std::size_t flow_count, NextFn&& next, SpscRing<Packet>& out,
               const std::atomic<bool>& abort,
               obs::HostProfiler::StageCounters* prof) {
    std::priority_queue<PendingArrival, std::vector<PendingArrival>,
                        std::greater<PendingArrival>>
        pq;
    std::uint64_t seq = 0;
    for (std::size_t i = 0; i < flow_count; ++i)
        if (const auto a = next(i))
            pq.push(PendingArrival{a->time_ns, i, a->size_bytes, seq++});

    std::uint64_t next_packet_id = 0;
    Packet buf[kMergeBatch];
    std::size_t n = 0;
    while (!pq.empty()) {
        const PendingArrival a = pq.top();
        pq.pop();
        buf[n++] = Packet{next_packet_id++, static_cast<FlowId>(a.source),
                          a.size_bytes, a.time};
        if (n == kMergeBatch) {
            if (prof) prof->add_items(n);
            if (!out.push_all(buf, n, abort)) return;
            n = 0;
        }
        if (const auto nx = next(a.source)) {
            WFQS_ASSERT_MSG(nx->time_ns >= a.time,
                            "traffic source went backwards in time");
            pq.push(PendingArrival{nx->time_ns, a.source, nx->size_bytes, seq++});
        }
    }
    if (n != 0) {
        if (prof) prof->add_items(n);
        out.push_all(buf, n, abort);
    }
    out.close();
}

/// One gen worker: drains its owned traffic sources into their per-flow
/// rings. Never blocks on a single full ring (another owned flow could be
/// starving the merge stage — a deadlock); instead it rotates over its
/// flows with a one-batch backlog each and yields on a no-progress pass.
class GenWorker {
public:
    struct Feed {
        std::size_t flow;
        TrafficSource* source;
        SpscRing<Arrival>* ring;
        Arrival pending[kGenBatch];
        std::size_t n = 0, off = 0;
        bool exhausted = false;
        bool done() const { return exhausted && off == n; }
    };

    GenWorker(std::vector<Feed> feeds, const std::atomic<bool>& abort,
              obs::HostProfiler::StageCounters* prof)
        : feeds_(std::move(feeds)), abort_(abort), prof_(prof) {}

    void run() {
        std::size_t live = feeds_.size();
        bool stalled = false;  // inside a run of no-progress passes
        std::chrono::steady_clock::time_point stall_start;
        const auto settle = [&] {
            if (stalled) {
                stalled = false;
                const auto ns =
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - stall_start)
                        .count();
                stall_ns += static_cast<std::uint64_t>(ns);
                if (prof_)
                    prof_->add_stall_ns(static_cast<std::uint64_t>(ns));
            }
        };
        while (live != 0) {
            bool progress = false;
            live = 0;
            for (auto& f : feeds_) {
                if (f.done()) continue;
                if (f.off == f.n && !f.exhausted) {
                    f.off = f.n = 0;
                    while (f.n < kGenBatch) {
                        const auto a = f.source->next();
                        if (!a) {
                            f.exhausted = true;
                            break;
                        }
                        f.pending[f.n++] = *a;
                    }
                    progress = progress || f.n != 0;
                    if (prof_ && f.n != 0) prof_->add_items(f.n);
                }
                if (f.off < f.n) {
                    const std::size_t pushed =
                        f.ring->try_push(f.pending + f.off, f.n - f.off);
                    f.off += pushed;
                    progress = progress || pushed != 0;
                }
                if (f.done())
                    f.ring->close();
                else
                    ++live;
            }
            if (live != 0 && !progress) {
                if (!stalled) {
                    stalled = true;
                    stall_start = std::chrono::steady_clock::now();
                    ++stall_episodes;
                    if (prof_) prof_->inc_stalls();
                }
                if (abort_.load(std::memory_order_relaxed)) {
                    settle();
                    return;
                }
                std::this_thread::yield();
            } else {
                settle();
            }
        }
        settle();
    }

    std::uint64_t stall_episodes = 0;
    std::uint64_t stall_ns = 0;

private:
    std::vector<Feed> feeds_;
    const std::atomic<bool>& abort_;
    obs::HostProfiler::StageCounters* prof_;
};

/// Merge-stage view of one per-flow ring: batched blocking consumer.
struct FlowTap {
    SpscRing<Arrival>* ring;
    Arrival buf[kGenBatch];
    std::size_t n = 0, off = 0;

    std::optional<Arrival> next(const std::atomic<bool>& abort) {
        if (off == n) {
            n = ring->pop_wait(buf, kGenBatch, abort);
            off = 0;
            if (n == 0) return std::nullopt;  // closed and drained (or abort)
        }
        return buf[off++];
    }
};

/// Schedule-stage view of the merged ring: batched consumer with
/// one-packet lookahead (the loop's service decision needs the next
/// arrival time before committing to consume it).
class MergedTap {
public:
    MergedTap(SpscRing<Packet>& ring, const std::atomic<bool>& abort,
              EgressEmitter& egress, PipelineStats& stats,
              obs::CycleHistogram* batch_hist,
              obs::HostProfiler::StageCounters* prof)
        : ring_(ring), abort_(abort), egress_(egress), stats_(stats),
          batch_hist_(batch_hist), prof_(prof) {}

    /// Next merged arrival, or nullptr once the stream is over. Blocks
    /// on an empty ring (flushing pending egress events first).
    const Packet* peek() {
        if (off_ == n_ && !end_) refill();
        return end_ ? nullptr : &buf_[off_];
    }
    void advance() { ++off_; }

private:
    void refill() {
        egress_.flush();
        if (ring_.size_approx() == 0) {
            // The serial stage is about to wait on its input — the exact
            // signature of a merge-bound pipeline; worth a black-box event.
            obs::flight_record(obs::FlightEventKind::kStall,
                               static_cast<double>(stats_.sched_items),
                               static_cast<std::int64_t>(
                                   obs::HostProfiler::Stage::kSched));
        }
        const std::size_t got = ring_.pop_wait(buf_, limit_, abort_);
        if (got == 0) {
            end_ = true;
            stats_.sched_batch_limit = limit_;
            return;
        }
        n_ = got;
        off_ = 0;
        // Top up: pop_wait returns on the first item it sees, but the
        // producer keeps landing packets while we copy — drain them now,
        // up to the wakeup cap, instead of paying another refill each.
        if (n_ < limit_) n_ += ring_.try_pop(buf_ + n_, limit_ - n_);
        // Occupancy autotune: full drains mean the ring runs deeper than
        // the cap (raise it toward the buffer size — fewer, fatter
        // wakeups); starved drains mean the producer is the tight side
        // (lower it so each wakeup's bookkeeping matches what arrives).
        if (n_ == limit_ && limit_ < kSchedBatch)
            limit_ *= 2;
        else if (n_ <= limit_ / 4 && limit_ > kSchedBatchMin)
            limit_ /= 2;
        ++stats_.sched_batches;
        stats_.sched_items += n_;
        stats_.sched_batch_limit = limit_;
        if (prof_) {
            prof_->add_items(n_);
            prof_->inc_batches();
        }
        if (batch_hist_) batch_hist_->record_cycles(n_);
    }

    SpscRing<Packet>& ring_;
    const std::atomic<bool>& abort_;
    EgressEmitter& egress_;
    PipelineStats& stats_;
    obs::CycleHistogram* batch_hist_;
    obs::HostProfiler::StageCounters* prof_;
    Packet buf_[kSchedBatch];
    std::size_t n_ = 0, off_ = 0;
    std::size_t limit_ = kSchedBatchMin * 2;  ///< per-wakeup drain cap
    bool end_ = false;
};

/// The schedule stage: SimDriver's main loop verbatim, with the arrival
/// heap replaced by the merged stream and side effects routed to egress.
void run_sched(scheduler::Scheduler& sched, std::uint64_t rate, MergedTap& in,
               EgressEmitter& out) {
    TimeNs link_free_at = 0;
    TimeNs now = 0;
    constexpr int kMaxRecoveries = 3;

    const auto note_fault = [&](TimeNs at) {
        obs::flight_record(obs::FlightEventKind::kFault, static_cast<double>(at));
        out.emit(EgressEvent{EgressEvent::kFault, Packet{}, at, 0});
    };
    const auto note_recovery = [](TimeNs at) {
        obs::flight_record(obs::FlightEventKind::kRecovery,
                           static_cast<double>(at));
    };
    const auto deliver = [&](const Packet& pkt) {
        now = std::max(now, pkt.arrival_ns);
        out.emit(EgressEvent{EgressEvent::kArrival, pkt, 0, 0});
        bool accepted = false;
        for (int attempt = 0;; ++attempt) {
            try {
                accepted = sched.enqueue(pkt, pkt.arrival_ns);
                break;
            } catch (const fault::FaultError&) {
                note_fault(pkt.arrival_ns);
                if (attempt >= kMaxRecoveries || !sched.recover()) throw;
                note_recovery(pkt.arrival_ns);
            }
        }
        if (!accepted)
            out.emit(EgressEvent{EgressEvent::kDrop, Packet{}, pkt.arrival_ns, 0});
    };

    for (;;) {
        const Packet* next = in.peek();
        if (next == nullptr && !sched.has_packets()) break;
        if (!sched.has_packets()) {
            deliver(*next);
            in.advance();
            continue;
        }
        const TimeNs service_start = std::max(link_free_at, now);
        if (next != nullptr && next->arrival_ns <= service_start) {
            deliver(*next);
            in.advance();
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
                note_recovery(service_start);
            }
        }
        if (!pkt) {
            WFQS_ASSERT_MSG(faulted, "scheduler claimed packets but gave none");
            continue;
        }
        const TimeNs done = service_start + transmission_ns(pkt->size_bytes, rate);
        out.emit(EgressEvent{EgressEvent::kDeparture, *pkt, service_start, done});
        link_free_at = done;
    }
    out.finish();
}

/// Spawn a stage thread that records its exception and aborts the
/// pipeline instead of terminating the process.
template <typename Fn>
std::thread stage_thread(std::atomic<bool>& abort, std::exception_ptr& error, Fn fn) {
    return std::thread([&abort, &error, fn = std::move(fn)]() mutable {
        try {
            fn();
        } catch (...) {
            error = std::current_exception();
            abort.store(true, std::memory_order_relaxed);
        }
    });
}

}  // namespace

ParallelSimDriver::ParallelSimDriver(std::uint64_t link_rate_bps, unsigned threads)
    : rate_(link_rate_bps), threads_(std::max(threads, 1u)) {
    WFQS_REQUIRE(link_rate_bps > 0, "link rate must be positive");
}

void ParallelSimDriver::attach_metrics(obs::MetricsRegistry& registry) {
    metrics_ = &registry;
    registry.counter("net.offered_packets");
    registry.counter("net.dropped_packets");
    registry.counter("net.delivered_packets");
    registry.counter("net.sorter_faults");
    registry.histogram("net.delay_us", 0.0, 10'000.0, 1000);
    registry.histogram("host.pipeline.batch_size", 0.0,
                       static_cast<double>(kSchedBatch), 64);
    registry.gauge("host.pipeline.threads");
    registry.gauge("host.pipeline.gen_stalls");
    registry.gauge("host.pipeline.merge_stalls");
    registry.gauge("host.pipeline.sched_stalls");
    registry.gauge("host.pipeline.egress_stalls");
    registry.gauge("host.pipeline.gen_stall_ns");
    registry.gauge("host.pipeline.merge_stall_ns");
    registry.gauge("host.pipeline.sched_stall_ns");
    registry.gauge("host.pipeline.egress_stall_ns");
    registry.gauge("host.pipeline.flow_ring_occupancy");
    registry.gauge("host.pipeline.merged_ring_occupancy");
    registry.gauge("host.pipeline.egress_ring_occupancy");
    registry.gauge("host.pipeline.avg_sched_batch");
    registry.gauge("host.pipeline.batch_limit");
}

void ParallelSimDriver::publish_metrics() {
    if (!metrics_) return;
    metrics_->gauge("host.pipeline.threads").set(stats_.threads);
    metrics_->gauge("host.pipeline.gen_stalls")
        .set(static_cast<double>(stats_.gen_stalls));
    metrics_->gauge("host.pipeline.merge_stalls")
        .set(static_cast<double>(stats_.merge_stalls));
    metrics_->gauge("host.pipeline.sched_stalls")
        .set(static_cast<double>(stats_.sched_stalls));
    metrics_->gauge("host.pipeline.egress_stalls")
        .set(static_cast<double>(stats_.egress_stalls));
    metrics_->gauge("host.pipeline.gen_stall_ns")
        .set(static_cast<double>(stats_.gen_stall_ns));
    metrics_->gauge("host.pipeline.merge_stall_ns")
        .set(static_cast<double>(stats_.merge_stall_ns));
    metrics_->gauge("host.pipeline.sched_stall_ns")
        .set(static_cast<double>(stats_.sched_stall_ns));
    metrics_->gauge("host.pipeline.egress_stall_ns")
        .set(static_cast<double>(stats_.egress_stall_ns));
    metrics_->gauge("host.pipeline.flow_ring_occupancy").set(stats_.flow_ring_occupancy);
    metrics_->gauge("host.pipeline.merged_ring_occupancy")
        .set(stats_.merged_ring_occupancy);
    metrics_->gauge("host.pipeline.egress_ring_occupancy")
        .set(stats_.egress_ring_occupancy);
    metrics_->gauge("host.pipeline.avg_sched_batch").set(stats_.avg_sched_batch());
    metrics_->gauge("host.pipeline.batch_limit")
        .set(static_cast<double>(stats_.sched_batch_limit));
}

SimResult ParallelSimDriver::run(scheduler::Scheduler& sched,
                                 std::vector<FlowSpec>& flows) {
    stats_ = PipelineStats{};
    stats_.threads = threads_;
    if (threads_ <= 1) {
        // The bit-identity anchor: literally the sequential driver.
        SimDriver seq(rate_);
        if (metrics_) seq.attach_metrics(*metrics_);
        if (profiler_) {
            // One logical thread runs every stage section.
            using Stage = obs::HostProfiler::Stage;
            profiler_->set_stage_threads(Stage::kGen, 1);
            profiler_->set_stage_threads(Stage::kSched, 1);
            profiler_->set_stage_threads(Stage::kEgress, 1);
            seq.set_profiler(profiler_);
            profiler_->start_sampling();
        }
        SimResult result = seq.run(sched, flows);
        if (profiler_) profiler_->stop_sampling();
        // The sequential loop consumes one arrival per service decision:
        // every "batch" the schedule stage sees has size 1. Recording
        // them keeps host.pipeline.batch_size populated (and honest)
        // on the delegate path instead of silently empty.
        stats_.sched_batches = result.offered_packets;
        stats_.sched_items = result.offered_packets;
        stats_.sched_batch_limit = 1;  // the loop has no ring to drain
        if (metrics_)
            metrics_->histogram("host.pipeline.batch_size")
                .record_cycles(1, result.offered_packets);
        publish_metrics();
        return result;
    }

    // Flow registration stays on the calling thread, in flow order, as in
    // the sequential loop.
    for (std::size_t i = 0; i < flows.size(); ++i) {
        const FlowId id = sched.add_flow(flows[i].weight);
        WFQS_ASSERT_MSG(id == i, "scheduler must number flows sequentially");
    }

    using Stage = obs::HostProfiler::Stage;
    obs::HostProfiler::StageCounters* prof_gen =
        profiler_ ? &profiler_->stage(Stage::kGen) : nullptr;
    obs::HostProfiler::StageCounters* prof_merge =
        profiler_ ? &profiler_->stage(Stage::kMerge) : nullptr;
    obs::HostProfiler::StageCounters* prof_sched =
        profiler_ ? &profiler_->stage(Stage::kSched) : nullptr;
    obs::HostProfiler::StageCounters* prof_egress =
        profiler_ ? &profiler_->stage(Stage::kEgress) : nullptr;

    SimResult result;
    EgressSink sink(result, metrics_, prof_egress);
    std::atomic<bool> abort{false};

    const bool own_egress_thread = threads_ >= 3;
    const unsigned gen_workers =
        threads_ >= 4 ? std::min<unsigned>(threads_ - 3,
                                           std::max<std::size_t>(flows.size(), 1))
                      : 0;

    SpscRing<Packet> merged(kMergedRingCap);
    auto egress_ring = own_egress_thread
                           ? std::make_unique<SpscRing<EgressEvent>>(kEgressRingCap)
                           : nullptr;

    std::vector<std::unique_ptr<SpscRing<Arrival>>> flow_rings;
    std::vector<GenWorker> workers;
    if (gen_workers != 0) {
        flow_rings.reserve(flows.size());
        for (std::size_t i = 0; i < flows.size(); ++i)
            flow_rings.push_back(std::make_unique<SpscRing<Arrival>>(kFlowRingCap));
        std::vector<std::vector<GenWorker::Feed>> assignment(gen_workers);
        for (std::size_t i = 0; i < flows.size(); ++i)
            assignment[i % gen_workers].push_back(GenWorker::Feed{
                i, flows[i].source.get(), flow_rings[i].get(), {}});
        workers.reserve(gen_workers);
        for (auto& feeds : assignment)
            workers.emplace_back(std::move(feeds), abort, prof_gen);
    }

    std::vector<std::thread> threads;
    std::vector<std::exception_ptr> errors(gen_workers + 2);
    std::vector<FlowTap> taps(flow_rings.size());
    for (std::size_t i = 0; i < flow_rings.size(); ++i)
        taps[i].ring = flow_rings[i].get();

    const auto join_all = [&] {
        for (auto& t : threads)
            if (t.joinable()) t.join();
    };

    // Batch-size distribution is recorded into a stage-local histogram
    // (single writer: the schedule thread) and merged into the registry's
    // view at quiescence — the profiler's sampler thread may read the
    // registry concurrently, and CycleHistogram is not atomic.
    obs::CycleHistogram local_batch_hist(0.0, static_cast<double>(kSchedBatch), 64);

    if (profiler_) {
        profiler_->set_stage_threads(Stage::kGen, gen_workers);
        profiler_->set_stage_threads(Stage::kMerge, 1);
        profiler_->set_stage_threads(Stage::kSched, 1);
        profiler_->set_stage_threads(Stage::kEgress, own_egress_thread ? 1 : 0);
        // Live ring probes: occupancy is instantaneous fill, stall series
        // come from the rings' single-writer atomic side stats. Sampling
        // stops before these rings leave scope.
        profiler_->add_gauge("ring.merged.occupancy", [&merged] {
            return static_cast<double>(merged.size_approx());
        });
        profiler_->add_counter("ring.merged.producer_stall_ns", [&merged] {
            return merged.producer_stats().stall_ns();
        });
        profiler_->add_counter("ring.merged.consumer_stall_ns", [&merged] {
            return merged.consumer_stats().stall_ns();
        });
        if (egress_ring) {
            SpscRing<EgressEvent>* er = egress_ring.get();
            profiler_->add_gauge("ring.egress.occupancy", [er] {
                return static_cast<double>(er->size_approx());
            });
            profiler_->add_counter("ring.egress.producer_stall_ns", [er] {
                return er->producer_stats().stall_ns();
            });
            profiler_->add_counter("ring.egress.consumer_stall_ns", [er] {
                return er->consumer_stats().stall_ns();
            });
        }
        if (!flow_rings.empty()) {
            profiler_->add_gauge("ring.flow.occupancy", [&flow_rings] {
                std::uint64_t fill = 0;
                for (const auto& r : flow_rings) fill += r->size_approx();
                return static_cast<double>(fill) /
                       static_cast<double>(flow_rings.size());
            });
            profiler_->add_counter("ring.flow.consumer_stall_ns", [&flow_rings] {
                std::uint64_t ns = 0;
                for (const auto& r : flow_rings) ns += r->consumer_stats().stall_ns();
                return ns;
            });
        }
        profiler_->start_sampling();
    }

    try {
        for (unsigned w = 0; w < gen_workers; ++w)
            threads.push_back(
                stage_thread(abort, errors[w], [&workers, w] { workers[w].run(); }));

        // Merge thread: pulls flow rings when gen workers exist, calls the
        // traffic sources directly (fused gen+merge) otherwise.
        threads.push_back(stage_thread(abort, errors[gen_workers], [&] {
            if (gen_workers != 0) {
                run_merge(
                    flows.size(),
                    [&](std::size_t i) { return taps[i].next(abort); }, merged, abort,
                    prof_merge);
            } else {
                run_merge(
                    flows.size(),
                    [&](std::size_t i) { return flows[i].source->next(); }, merged,
                    abort, prof_merge);
            }
        }));

        if (own_egress_thread) {
            threads.push_back(stage_thread(abort, errors[gen_workers + 1], [&] {
                EgressEvent buf[kEgressBatch];
                while (const std::size_t n =
                           egress_ring->pop_wait(buf, kEgressBatch, abort))
                    for (std::size_t i = 0; i < n; ++i) sink.apply(buf[i]);
            }));
        }

        EgressEmitter emitter(own_egress_thread ? nullptr : &sink, egress_ring.get(),
                              abort);
        MergedTap tap(merged, abort, emitter, stats_, &local_batch_hist,
                      prof_sched);
        run_sched(sched, rate_, tap, emitter);
    } catch (...) {
        abort.store(true, std::memory_order_relaxed);
        join_all();
        if (profiler_) profiler_->stop_sampling();
        throw;
    }
    join_all();
    // Stop sampling before folding so the burst of end-of-run bookkeeping
    // never shows up as a fake final window (and before any ring a probe
    // reads can leave scope).
    if (profiler_) profiler_->stop_sampling();
    for (const auto& err : errors)
        if (err) std::rethrow_exception(err);

    if (metrics_)
        metrics_->histogram("host.pipeline.batch_size").merge(local_batch_hist);

    // Fold ring telemetry into the per-stage stall/occupancy view. The
    // stage-to-ring-side mapping: a side's stalls charge the stage that
    // waited on it.
    for (const auto& w : workers) {
        stats_.gen_stalls += w.stall_episodes;
        stats_.gen_stall_ns += w.stall_ns;
    }
    double flow_occ = 0.0;
    for (const auto& ring : flow_rings) {
        stats_.gen_stalls += ring->producer_stats().stall_episodes();
        stats_.gen_stall_ns += ring->producer_stats().stall_ns();
        stats_.merge_stalls += ring->consumer_stats().stall_episodes();
        stats_.merge_stall_ns += ring->consumer_stats().stall_ns();
        flow_occ += ring->consumer_stats().avg_occupancy();
    }
    stats_.flow_ring_occupancy =
        flow_rings.empty() ? 0.0 : flow_occ / static_cast<double>(flow_rings.size());
    stats_.merge_stalls += merged.producer_stats().stall_episodes();
    stats_.merge_stall_ns += merged.producer_stats().stall_ns();
    stats_.sched_stalls += merged.consumer_stats().stall_episodes();
    stats_.sched_stall_ns += merged.consumer_stats().stall_ns();
    stats_.merged_ring_occupancy = merged.consumer_stats().avg_occupancy();
    if (egress_ring) {
        stats_.sched_stalls += egress_ring->producer_stats().stall_episodes();
        stats_.sched_stall_ns += egress_ring->producer_stats().stall_ns();
        stats_.egress_stalls += egress_ring->consumer_stats().stall_episodes();
        stats_.egress_stall_ns += egress_ring->consumer_stats().stall_ns();
        stats_.egress_ring_occupancy = egress_ring->consumer_stats().avg_occupancy();
    }
    if (profiler_) {
        // Ring-side stall telemetry reaches the profiler's stage counters
        // at quiescence (the live timeline reads the rings directly); the
        // GenWorker stall time was charged live, so only the flow-ring
        // producer share of gen remains.
        const auto fold = [](obs::HostProfiler::StageCounters* c,
                             std::uint64_t episodes, std::uint64_t ns) {
            c->add_stalls(episodes);
            c->add_stall_ns(ns);
        };
        std::uint64_t live_gen_eps = 0, live_gen_ns = 0;
        for (const auto& w : workers) {
            live_gen_eps += w.stall_episodes;
            live_gen_ns += w.stall_ns;
        }
        fold(prof_gen, stats_.gen_stalls - live_gen_eps,
             stats_.gen_stall_ns - live_gen_ns);
        fold(prof_merge, stats_.merge_stalls, stats_.merge_stall_ns);
        fold(prof_sched, stats_.sched_stalls, stats_.sched_stall_ns);
        fold(prof_egress, stats_.egress_stalls, stats_.egress_stall_ns);
    }
    publish_metrics();
    return result;
}

std::uint64_t result_fingerprint(const SimResult& r) {
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
    const auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 1099511628211ull;
        }
    };
    mix(r.offered_packets);
    mix(r.dropped_packets);
    mix(r.sorter_faults);
    mix(r.last_departure_ns);
    mix(r.all_arrivals.size());
    for (const Packet& p : r.all_arrivals) {
        mix(p.id);
        mix(p.flow);
        mix(p.size_bytes);
        mix(p.arrival_ns);
    }
    mix(r.records.size());
    for (const PacketRecord& rec : r.records) {
        mix(rec.packet.id);
        mix(rec.packet.flow);
        mix(rec.packet.size_bytes);
        mix(rec.packet.arrival_ns);
        mix(rec.service_start_ns);
        mix(rec.departure_ns);
    }
    return h;
}

bool identical_results(const SimResult& a, const SimResult& b) {
    const auto same_packet = [](const Packet& x, const Packet& y) {
        return x.id == y.id && x.flow == y.flow && x.size_bytes == y.size_bytes &&
               x.arrival_ns == y.arrival_ns;
    };
    if (a.offered_packets != b.offered_packets ||
        a.dropped_packets != b.dropped_packets ||
        a.sorter_faults != b.sorter_faults ||
        a.last_departure_ns != b.last_departure_ns ||
        a.all_arrivals.size() != b.all_arrivals.size() ||
        a.records.size() != b.records.size())
        return false;
    for (std::size_t i = 0; i < a.all_arrivals.size(); ++i)
        if (!same_packet(a.all_arrivals[i], b.all_arrivals[i])) return false;
    for (std::size_t i = 0; i < a.records.size(); ++i) {
        if (!same_packet(a.records[i].packet, b.records[i].packet) ||
            a.records[i].service_start_ns != b.records[i].service_start_ns ||
            a.records[i].departure_ns != b.records[i].departure_ns)
            return false;
    }
    return true;
}

}  // namespace wfqs::net
