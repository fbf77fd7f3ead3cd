#include "net/sim_driver.hpp"

#include <algorithm>
#include <bit>
#include <optional>

#include "common/assert.hpp"
#include "fault/errors.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/profiler.hpp"
#include "obs/tracer.hpp"

namespace wfqs::net {
namespace {

constexpr double ns_to_trace_us(TimeNs t) { return static_cast<double>(t) / 1000.0; }

/// The flows' sources merged into one stream of packets, in (time, seq)
/// order. seq ranks a source's head by when the source's previous arrival
/// was delivered, a first arrival by flow index: the order in which a
/// binary heap holding one pending arrival per source would pop them.
/// Packet ids number the stream from 0.
///
/// Each source is drawn kBatch arrivals at a time into a buffer of its
/// own, so its virtual next() and its branches run back to back.
/// The buffered heads meet in a loser tree: every inner node keeps the key
/// that lost the match played there, so delivering the winner replays only
/// its leaf-to-root path, log2(leaves) matches with no data-dependent
/// branch. A dry source's key is kDry, above any real key.
class ArrivalMerge {
public:
    explicit ArrivalMerge(std::vector<FlowSpec>& flows)
        : lanes_(flows.size()),
          batches_(flows.size() * kBatch),
          leaves_(std::bit_ceil(std::max<std::size_t>(flows.size(), 1))),
          leaf_bits_(static_cast<unsigned>(std::countr_zero(leaves_))),
          nodes_(leaves_, kDry),
          seq_(flows.size()) {
        // Play the first tournament bottom-up: winners[leaves_ + s] is
        // leaf s, winners[n] the winner at inner node n.
        std::vector<Key> winners(2 * leaves_, kDry);
        for (std::size_t s = 0; s < flows.size(); ++s) {
            lanes_[s].source = flows[s].source.get();
            refill(s);
            if (lanes_[s].len != 0) winners[leaves_ + s] = key(batches_[s * kBatch].time_ns, s, s);
        }
        for (std::size_t n = leaves_ - 1; n > 0; --n) {
            winners[n] = winners[2 * n];
            nodes_[n] = winners[2 * n + 1];
            play(winners[n], nodes_[n]);
        }
        crown(winners[1]);  // the root, or the only leaf
    }

    bool empty() const { return head_key_.time == kDry.time && head_key_.rank == kDry.rank; }
    /// The next packet. Not when empty().
    const Packet& head() const { return heads_[current_]; }

    /// Deliver the head and stage the next one. The delivered packet stays
    /// where head() pointed until the next pop(): the scheduler then reads
    /// a packet written one delivery earlier, never one still in flight.
    const Packet& pop() {
        const std::size_t s = leaf_of(head_key_);
        Lane& lane = lanes_[s];
        if (++lane.pos == lane.len) refill(s);
        Key k = lane.pos < lane.len ? key(batches_[s * kBatch + lane.pos].time_ns, seq_++, s)
                                    : kDry;
        for (std::size_t n = (leaves_ + s) >> 1; n != 0; n >>= 1) play(k, nodes_[n]);
        current_ ^= 1;
        crown(k);
        return heads_[current_ ^ 1];
    }

private:
    /// Compared as (time, rank); rank = seq << leaf_bits_ | leaf, and seq
    /// is unique, so the leaf never decides a match.
    struct Key {
        TimeNs time;
        std::uint64_t rank;
    };
    static constexpr Key kDry{~TimeNs{0}, ~std::uint64_t{0}};
    static constexpr std::size_t kBatch = 32;

    struct Lane {
        TrafficSource* source = nullptr;
        std::uint32_t pos = 0;  ///< next buffered arrival
        std::uint32_t len = 0;  ///< buffered arrivals
        bool dry = false;       ///< next() has returned nullopt
    };

    /// One match: `winner` leaves with the smaller key, `stored` keeps the
    /// larger. Selects by mask, because the outcome is a coin flip: written
    /// as selects, GCC branches around the store.
    static void play(Key& winner, Key& stored) {
        const std::uint64_t stored_wins =
            0 - static_cast<std::uint64_t>((stored.time < winner.time) |
                                           ((stored.time == winner.time) &
                                            (stored.rank < winner.rank)));
        const Key w{(stored.time & stored_wins) | (winner.time & ~stored_wins),
                    (stored.rank & stored_wins) | (winner.rank & ~stored_wins)};
        stored = {stored.time ^ winner.time ^ w.time, stored.rank ^ winner.rank ^ w.rank};
        winner = w;
    }

    Key key(TimeNs time, std::uint64_t seq, std::size_t leaf) const {
        WFQS_ASSERT_MSG((seq << leaf_bits_) >> leaf_bits_ == seq, "arrival rank overflows its key");
        return {time, seq << leaf_bits_ | leaf};
    }
    std::size_t leaf_of(const Key& k) const { return k.rank & (leaves_ - 1); }

    /// Draw the next batch of lane s, whose buffer is spent.
    void refill(std::size_t s) {
        Lane& lane = lanes_[s];
        Arrival* batch = &batches_[s * kBatch];
        TimeNs last = lane.len != 0 ? batch[lane.len - 1].time_ns : 0;
        lane.pos = 0;
        lane.len = 0;
        while (!lane.dry && lane.len < kBatch) {
            const std::optional<Arrival> a = lane.source->next();
            if (!a) {
                lane.dry = true;
                break;
            }
            WFQS_ASSERT_MSG(a->time_ns >= last, "traffic source went backwards in time");
            last = a->time_ns;
            // Field by field: a whole-struct copy reads the returned
            // optional back in one load from the two stores that wrote it,
            // which stalls.
            batch[lane.len].time_ns = a->time_ns;
            batch[lane.len].size_bytes = a->size_bytes;
            ++lane.len;
        }
    }

    /// Make the arrival keyed `k` the head.
    void crown(const Key& k) {
        head_key_ = k;
        if (empty()) return;
        const std::size_t s = leaf_of(k);
        const Arrival& a = batches_[s * kBatch + lanes_[s].pos];
        heads_[current_] = Packet{next_id_++, static_cast<FlowId>(s), a.size_bytes, a.time_ns};
    }

    std::vector<Lane> lanes_;
    std::vector<Arrival> batches_;  ///< kBatch per lane
    std::size_t leaves_;            ///< lanes rounded up to a power of two
    unsigned leaf_bits_;            ///< log2(leaves_)
    std::vector<Key> nodes_;        ///< losers at inner nodes 1..leaves_-1, heap order
    Key head_key_ = kDry;
    std::uint64_t seq_;             ///< next delivery rank (flow indices come first)
    Packet heads_[2];               ///< the head and the last delivered packet
    unsigned current_ = 0;          ///< which of heads_ is the head
    std::uint64_t next_id_ = 0;
};

}  // namespace

SimDriver::SimDriver(std::uint64_t link_rate_bps) : link_(link_rate_bps) {}

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
    for (std::size_t i = 0; i < flows.size(); ++i) {
        const net::FlowId id = sched.add_flow(flows[i].weight);
        WFQS_ASSERT_MSG(id == i, "scheduler must number flows sequentially");
    }
    ArrivalMerge arrivals(flows);

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

    // The scheduler's backlog, asked again after every enqueue, dequeue
    // and recovery rather than on every test.
    bool backlogged = sched.has_packets();

    auto deliver_next_arrival = [&] {
        const Packet& pkt = arrivals.pop();
        stage_done(Stage::kGen);
        now = std::max(now, pkt.arrival_ns);
        // Arrival-side result/metric recording is bookkeeping, not
        // generation: a timed iteration charges it to the egress section.
        ++result.offered_packets;
        WFQS_TRACE_INSTANT("arrival", "net", ns_to_trace_us(pkt.arrival_ns));
        if (m_offered) m_offered->inc();
        if (timed) prof->lap(Stage::kEgress);
        bool accepted = false;
        for (int attempt = 0;; ++attempt) {
            try {
                accepted = sched.enqueue(pkt, pkt.arrival_ns);
                break;
            } catch (const fault::FaultError&) {
                note_fault(pkt.arrival_ns);
                if (attempt >= kMaxRecoveries || !sched.recover()) throw;
                note_recovery(pkt.arrival_ns, attempt);
            }
        }
        backlogged = sched.has_packets();
        if (timed) prof->lap(Stage::kSched);
        if (!accepted) {
            ++result.dropped_packets;
            WFQS_TRACE_INSTANT("drop", "net", ns_to_trace_us(pkt.arrival_ns));
            if (m_dropped) m_dropped->inc();
        }
    };
    // The served packet is built in place: copying the optional whole
    // would read its last packet word and the engaged flag in one load,
    // which the two stores that wrote them cannot forward.
    bool faulted = false;
    const auto dequeue_at = [&](TimeNs at) -> std::optional<Packet> {
        faulted = false;
        for (int attempt = 0;; ++attempt) {
            try {
                return sched.dequeue(at);
            } catch (const fault::FaultError&) {
                faulted = true;
                note_fault(at);
                if (attempt >= kMaxRecoveries || !sched.recover()) throw;
                note_recovery(at, attempt);
            }
        }
    };

    while (!arrivals.empty() || backlogged) {
        timed = prof && prof->begin_iteration();
        if (!backlogged) {
            deliver_next_arrival();
            continue;
        }
        const TimeNs service_start = std::max(link_free_at, now);
        // Arrivals up to the service decision take part in it.
        if (!arrivals.empty() && arrivals.head().arrival_ns <= service_start) {
            deliver_next_arrival();
            continue;
        }
        const std::optional<Packet> pkt = dequeue_at(service_start);
        backlogged = sched.has_packets();
        if (!pkt) {
            // A recovery can legally shrink the queue (a rebuild lost the
            // entry that was about to be served); re-evaluate the loop.
            WFQS_ASSERT_MSG(faulted, "scheduler claimed packets but gave none");
            continue;
        }
        stage_done(Stage::kSched);
        const TimeNs done = service_start + link_.transmission_ns(pkt->size_bytes);
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
