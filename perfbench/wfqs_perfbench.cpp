// End-to-end and per-layer benchmark driver for the wfqsort library.
//
//   wfqs_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Every workload pushes the repo's standard traffic mix
// (net::make_mixed_profile: VoIP, video, CBR, Poisson and on-off Pareto
// sources) through net::SimDriver at bench/line_rate's 50 Mb/s link and a
// WFQ sched_prog::PifoScheduler. The workloads differ in the sorter
// behind that scheduler:
//
//   paper12-model  cycle-accurate circuit at the paper's silicon geometry
//                  (3 levels of 16-way nodes, flat translation table),
//                  built by baselines::make_tag_queue
//   wide32-model   cycle-accurate circuit at TreeGeometry::wide32() (a
//                  4-way root over five 64-way levels, tiered translation
//                  table); make_tag_queue only builds uniform 4-bit trees,
//                  so GeometryQueue mirrors its adapter at this geometry
//   wide32-ffs     host-native find-first-set bitmap sorter over the same
//                  32-bit tag space
//
// The ffs backend at 12 bits is timed in isolation in paper12-model's
// per-layer ledger (ffs_op_ns replays the recorded stream on FfsSorter).
//
// The schedule itself does not depend on the sorter: every workload must
// depart packets exactly as a binary-heap reference over the same ranks
// does. So for one seed the two QoS outputs are the same number on both
// wide32 workloads (paper12 quantizes ranks differently), and wide32-ffs
// reports the modeled cycles of wide32-model on the same traffic.
//
// A seed expands into kSamples independent traffic samples of 10 s of
// simulated time each; a run repeats them round-robin until --seconds
// have passed. --trace 0 times the untraced stack (host wall clock, the
// driver offering each packet as soon as the previous call returns) and
// reports host scheduler ops/s, set-up time, and three outputs of the
// simulated schedule: modeled cycles per sorter op, mean lag behind GPS,
// and VoIP p99 delay. --trace 1 reports the per-layer ledger instead:
// spans around the scheduler and queue calls of traced runs, plus each
// layer timed in isolation (SRAM, tree walk, translation table, list FSM,
// TagSorter, the N=1 ShardedSorter wrapper, FfsSorter, the TagQueue
// adapter, rank/virtual-time computation, packet buffer) on the op stream
// a traced run recorded at that layer's boundary, or on a sliding window
// of distinct tags below the sorter. It also reports how far the ranks
// run: rank_laps is the largest rank over the tag space, so a value above
// 1 means the ranks wrapped and the Fig. 6 sector sweep ran.
//
// Both modes check every sample's outputs: the departure order must equal
// a binary-heap reference scheduler's (and, on ffs, the model backend's)
// and stay identical across repeats, every packet must depart within
// 2 Lmax/r plus one rank quantization step of its GPS fluid finish, and
// no packet may be dropped. Trace 1 also checks that every isolated sorter
// replay pops exactly the recorded sequence and that the modeled per-op
// cycles sum to the clock.
//
// The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "analysis/delay_stats.hpp"
#include "analysis/fairness.hpp"
#include "baselines/factory.hpp"
#include "common/rng.hpp"
#include "core/ffs_sorter.hpp"
#include "core/sharded_sorter.hpp"
#include "core/tag_sorter.hpp"
#include "fault/ecc.hpp"
#include "hw/simulation.hpp"
#include "matcher/matcher.hpp"
#include "net/sim_driver.hpp"
#include "net/traffic_gen.hpp"
#include "sched_prog/pifo_scheduler.hpp"
#include "sched_prog/rank.hpp"
#include "scheduler/packet_buffer.hpp"
#include "storage/linked_tag_store.hpp"
#include "storage/translation_table.hpp"
#include "tree/multibit_tree.hpp"
#include "wfq/tag_computer.hpp"
#include "wfq/virtual_clock.hpp"

using namespace wfqs;

namespace {

using SteadyClock = std::chrono::steady_clock;

/// Results of timed loops are folded in here so they cannot be optimised
/// away.
volatile std::uint64_t g_sink = 0;

double seconds_since(SteadyClock::time_point t0) {
    return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

/// Linear-interpolated quantile `p` in [0, 1] of `v`.
double quantile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// --- workload -------------------------------------------------------------

struct Workload {
    const char* name;
    bool wide;  ///< TreeGeometry::wide32() rather than the paper's paper()
    baselines::SorterBackend backend;
    int rank_granularity_bits;  ///< RankConfig::tag_granularity_bits

    tree::TreeGeometry geometry() const {
        return wide ? tree::TreeGeometry::wide32() : tree::TreeGeometry::paper();
    }
    unsigned tag_bits() const { return geometry().tag_bits(); }
};

// Rank quantization per geometry. -6 is the repo's standard WFQ setting
// (one tag step = 64 bits per unit weight). The paper's 12-bit space
// leaves a 3840-step window, which the mix's weight-1 Pareto bursts
// overrun at -8 (one sample in ~300); at -10 the largest live span seen
// over 1600 samples is 1251 steps, and none of 4800 more overran.
constexpr int kWideGranularity = -6;
constexpr int kPaperGranularity = -10;
constexpr Workload kWorkloads[] = {
    {"paper12-model", false, baselines::SorterBackend::kModel, kPaperGranularity},
    {"wide32-model", true, baselines::SorterBackend::kModel, kWideGranularity},
    {"wide32-ffs", true, baselines::SorterBackend::kFfs, kWideGranularity},
};

constexpr std::uint64_t kLinkBps = 50'000'000;  // bench/line_rate's link
constexpr net::TimeNs kHorizonNs = 10'000'000'000;  // simulated traffic per sample
// Sorter slots. 2^14 keeps a 32-bit tag, the payload and the next pointer
// in one list word; the backlog of this mix stays far below it.
constexpr std::size_t kCapacity = std::size_t{1} << 14;
// make_mixed_profile's first two flows are its VoIP calls.
constexpr std::size_t kVoipFlows = 2;
// Independent traffic samples per seed. Heavy-tailed sources make one
// sample's QoS outputs, and its host cost per op, swing between seeds;
// averaging 64 narrows that, and the timed runs cycle through the same 64.
constexpr unsigned kSamples = 64;
// Set-ups timed back to back after each round of the samples (setup_s).
constexpr unsigned kSetupsPerRound = 4;

/// make_mixed_profile seeds its sources seed+1..seed+6, so samples are
/// spaced far enough apart to share none.
std::uint64_t sample_seed(std::uint64_t seed, unsigned k) {
    return (seed * kSamples + k) << 8;
}

std::vector<std::uint32_t> flow_weights(std::uint64_t seed) {
    std::vector<std::uint32_t> w;
    for (const auto& f : net::make_mixed_profile(kHorizonNs, seed)) w.push_back(f.weight);
    return w;
}

sched_prog::PifoScheduler::Config sched_config(const Workload& w) {
    sched_prog::PifoScheduler::Config cfg;
    cfg.policy = sched_prog::RankPolicy::kWfq;
    cfg.rank.link_rate_bps = kLinkBps;
    cfg.rank.tag_granularity_bits = w.rank_granularity_bits;
    return cfg;
}

/// Payload width the factory packs next to the tag and the next pointer.
unsigned payload_bits_for(const tree::TreeGeometry& g) {
    const unsigned next_bits = static_cast<unsigned>(std::bit_width(kCapacity));
    return std::min(64 - g.tag_bits() - next_bits, 32u);
}

core::TagSorter::Config sorter_config(const Workload& w) {
    return {w.geometry(), kCapacity, payload_bits_for(w.geometry())};
}

/// The factory's sorter adapters at an explicit geometry: a ShardedSorter
/// at N=1 billed by its SRAM traffic, or one FfsSorter billed one access
/// per op, with the same scalar paths as make_tag_queue's. That factory
/// derives uniform 4-bit trees from a tag width, so it cannot build
/// TreeGeometry::wide32().
template <class Sorter>
class GeometryQueue final : public baselines::TagQueue {
public:
    static constexpr bool kModel = std::is_same_v<Sorter, core::ShardedSorter>;

    explicit GeometryQueue(const core::TagSorter::Config& cfg) : sorter_(build(cfg, sim_)) {}

    void insert(std::uint64_t tag, std::uint32_t payload) override {
        OpScope op(*this, OpScope::Kind::Insert);
        const std::uint64_t before = kModel ? sim_.total_memory_stats().total() : 0;
        sorter_.insert(tag, payload);
        touch(kModel ? sim_.total_memory_stats().total() - before : 1);
    }
    std::optional<baselines::QueueEntry> pop_min() override {
        if (sorter_.empty()) return std::nullopt;
        OpScope op(*this, OpScope::Kind::Pop);
        const std::uint64_t before = kModel ? sim_.total_memory_stats().total() : 0;
        const auto popped = sorter_.pop_min();
        touch(kModel ? sim_.total_memory_stats().total() - before : 1);
        return baselines::QueueEntry{popped->tag, popped->payload};
    }
    std::optional<baselines::QueueEntry> peek_min() override {
        const auto min = sorter_.peek_min();
        if (!min) return std::nullopt;
        return baselines::QueueEntry{min->tag, min->payload};
    }
    std::size_t size() const override { return sorter_.size(); }
    std::string name() const override {
        return kModel ? "multi-bit tree" : "multi-bit tree [ffs]";
    }
    std::string model() const override { return "sort"; }
    std::string complexity() const override { return "O(W/k)"; }
    hw::Simulation* simulation() override { return kModel ? &sim_ : nullptr; }

private:
    static Sorter build(core::TagSorter::Config cfg, hw::Simulation& sim) {
        if constexpr (kModel) {
            return Sorter({cfg, 1}, sim);
        } else {
            cfg.payload_bits = 32;  // TagQueue payloads are raw 32-bit words
            return Sorter(cfg);
        }
    }

    hw::Simulation sim_;  // before sorter_, which registers its memories here
    Sorter sorter_;
};

/// The workload's sort/retrieve structure on `backend`.
std::unique_ptr<baselines::TagQueue> make_queue(const Workload& w,
                                                baselines::SorterBackend backend) {
    if (w.wide) {
        if (backend == baselines::SorterBackend::kModel)
            return std::make_unique<GeometryQueue<core::ShardedSorter>>(sorter_config(w));
        return std::make_unique<GeometryQueue<core::FfsSorter>>(sorter_config(w));
    }
    baselines::QueueParams p;
    p.range_bits = w.tag_bits();  // the factory builds paper() at 12 bits
    p.capacity = kCapacity;
    p.backend = backend;
    return baselines::make_tag_queue(baselines::QueueKind::MultibitTree, p);
}

std::unique_ptr<baselines::TagQueue> make_heap() {
    return baselines::make_tag_queue(baselines::QueueKind::Heap);
}

std::uint64_t fingerprint(const net::SimResult& r) {
    std::uint64_t h = 1469598103934665603ULL;
    const auto mix = [&](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ULL;
    };
    for (const auto& rec : r.records) {
        mix(rec.packet.id);
        mix(rec.departure_ns);
    }
    mix(r.dropped_packets);
    return h;
}

// --- spans around the scheduler and queue boundaries (--trace 1) ----------

struct Op {
    bool insert;
    std::uint64_t tag;
    std::uint32_t payload;
};

struct Event {
    bool enqueue;
    net::Packet packet;
    net::TimeNs now;
};

struct Spans {
    double sched_s = 0;
    double queue_s = 0;
    std::vector<Op>* ops = nullptr;        ///< queue op stream, when recording
    std::vector<Event>* events = nullptr;  ///< scheduler events, when recording
};

/// TagQueue decorator: times every datapath call and optionally records
/// the insert/pop stream for the isolated replays.
class SpanQueue final : public baselines::TagQueue {
public:
    SpanQueue(std::unique_ptr<baselines::TagQueue> inner, Spans& spans)
        : inner_(std::move(inner)), spans_(spans) {}

    void insert(std::uint64_t tag, std::uint32_t payload) override {
        const auto t0 = SteadyClock::now();
        inner_->insert(tag, payload);
        spans_.queue_s += seconds_since(t0);
        if (spans_.ops) spans_.ops->push_back({true, tag, payload});
    }
    std::optional<baselines::QueueEntry> pop_min() override {
        const auto t0 = SteadyClock::now();
        auto e = inner_->pop_min();
        spans_.queue_s += seconds_since(t0);
        if (spans_.ops && e) spans_.ops->push_back({false, e->tag, e->payload});
        return e;
    }
    std::optional<baselines::QueueEntry> peek_min() override {
        const auto t0 = SteadyClock::now();
        auto e = inner_->peek_min();
        spans_.queue_s += seconds_since(t0);
        return e;
    }
    std::size_t size() const override { return inner_->size(); }
    std::string name() const override { return inner_->name(); }
    std::string model() const override { return inner_->model(); }
    std::string complexity() const override { return inner_->complexity(); }
    hw::Simulation* simulation() override { return inner_->simulation(); }

private:
    std::unique_ptr<baselines::TagQueue> inner_;
    Spans& spans_;
};

/// Scheduler decorator: times the driver's enqueue/dequeue calls into the
/// scheduling layer and optionally records them as events.
class SpanScheduler final : public scheduler::Scheduler {
public:
    SpanScheduler(scheduler::Scheduler& inner, Spans& spans)
        : inner_(inner), spans_(spans) {}

    net::FlowId add_flow(std::uint32_t weight) override {
        return inner_.add_flow(weight);
    }
    bool has_packets() const override { return inner_.has_packets(); }
    std::size_t queued_packets() const override { return inner_.queued_packets(); }
    std::string name() const override { return inner_.name(); }

protected:
    bool do_enqueue(const net::Packet& packet, net::TimeNs now) override {
        const auto t0 = SteadyClock::now();
        const bool ok = inner_.enqueue(packet, now);
        spans_.sched_s += seconds_since(t0);
        if (spans_.events) spans_.events->push_back({true, packet, now});
        return ok;
    }
    std::optional<net::Packet> do_dequeue(net::TimeNs now) override {
        const auto t0 = SteadyClock::now();
        auto p = inner_.dequeue(now);
        spans_.sched_s += seconds_since(t0);
        if (spans_.events && p) spans_.events->push_back({false, *p, now});
        return p;
    }

private:
    scheduler::Scheduler& inner_;
    Spans& spans_;
};

// --- one end-to-end run ---------------------------------------------------

struct RunResult {
    net::SimResult sim;
    double run_s = 0;
    std::uint64_t queue_ops = 0;     ///< TagQueue inserts + pops
    std::uint64_t model_cycles = 0;  ///< modeled clock at the end (model backend)
};

/// Scheduler calls: one enqueue per offered packet, one dequeue per departure.
std::uint64_t scheduler_ops(const net::SimResult& r) {
    return r.offered_packets + r.records.size();
}

using QueueMaker = std::function<std::unique_ptr<baselines::TagQueue>()>;

/// The full stack for one traffic sample: sources, scheduler and driver.
/// With `spans`, the queue's calls are wrapped in timing spans.
struct Stack {
    std::vector<net::FlowSpec> flows;
    baselines::TagQueue* queue = nullptr;
    sched_prog::PifoScheduler sched;
    net::SimDriver driver;

    Stack(const Workload& w, const QueueMaker& make, std::uint64_t seed, Spans* spans)
        : flows(net::make_mixed_profile(kHorizonNs, seed)),
          sched(sched_config(w),
                [&] {
                    std::unique_ptr<baselines::TagQueue> q = make();
                    if (spans) q = std::make_unique<SpanQueue>(std::move(q), *spans);
                    queue = q.get();
                    return q;
                }),
          driver(kLinkBps) {}
};

/// Set up the full stack for `seed`, then run it to completion. With
/// `spans`, the scheduler and queue calls are wrapped in timing spans.
RunResult run_once(const Workload& w, const QueueMaker& make, std::uint64_t seed,
                   Spans* spans) {
    RunResult out;
    Stack stack(w, make, seed, spans);
    const auto t0 = SteadyClock::now();
    if (spans) {
        SpanScheduler traced(stack.sched, *spans);
        out.sim = stack.driver.run(traced, stack.flows);
    } else {
        out.sim = stack.driver.run(stack.sched, stack.flows);
    }
    out.run_s = seconds_since(t0);

    out.queue_ops = stack.queue->stats().inserts + stack.queue->stats().pops;
    if (hw::Simulation* sim = stack.queue->simulation()) out.model_cycles = sim->clock().now();
    return out;
}

/// Append the construction times of `n` back-to-back stacks, timed after
/// one untimed one: each timed set-up then meets the allocator state its
/// predecessor left, whatever sizes the runs before the burst freed.
void time_setups(const Workload& w, const QueueMaker& make, std::uint64_t seed, unsigned n,
                 std::vector<double>& out) {
    for (unsigned i = 0; i <= n; ++i) {
        const auto t0 = SteadyClock::now();
        auto stack = std::make_unique<Stack>(w, make, sample_seed(seed, i % kSamples), nullptr);
        if (i > 0) out.push_back(seconds_since(t0));
    }
}

// --- correctness ----------------------------------------------------------

struct Checks {
    std::vector<std::string> failures;
    void require(bool ok, const std::string& what) {
        if (!ok) failures.push_back(what);
    }
};

struct ScheduleOutputs {
    std::uint64_t model_cycles = 0;  ///< modeled clock over the run's queue ops
    std::uint64_t model_ops = 0;
    double gps_mean_lag_us = 0;
    double voip_p99_us = 0;
};

/// Check one run's schedule and derive its modeled and QoS outputs.
ScheduleOutputs verify_schedule(const Workload& w, std::uint64_t seed,
                                const RunResult& run, Checks& checks) {
    const net::SimResult& r = run.sim;
    checks.require(r.dropped_packets == 0, "packets were dropped");
    checks.require(r.sorter_faults == 0, "sorter faults were raised");
    checks.require(r.offered_packets == r.records.size() + r.dropped_packets,
                   "packets were lost (offered != delivered + dropped)");
    checks.require(r.records.size() > 10000, "too few packets delivered");

    // Link discipline and per-flow FIFO (packet ids grow in arrival order).
    const std::vector<std::uint32_t> weights = flow_weights(seed);
    std::vector<std::optional<std::uint64_t>> last_id(weights.size());
    net::TimeNs link_free = 0;
    bool link_ok = true, fifo_ok = true;
    for (const auto& rec : r.records) {
        link_ok &= rec.service_start_ns >= link_free &&
                   rec.service_start_ns >= rec.packet.arrival_ns &&
                   rec.departure_ns ==
                       rec.service_start_ns +
                           net::transmission_ns(rec.packet.size_bytes, kLinkBps);
        link_free = rec.departure_ns;
        if (rec.packet.flow >= weights.size()) {
            fifo_ok = false;
            continue;
        }
        auto& last = last_id[rec.packet.flow];
        fifo_ok &= !last || rec.packet.id > *last;
        last = rec.packet.id;
    }
    checks.require(link_ok, "link schedule overlaps or serves before arrival");
    checks.require(fifo_ok, "a flow's packets departed out of order");

    // Departure order equals an independent software reference.
    const RunResult ref = run_once(w, make_heap, seed, nullptr);
    checks.require(fingerprint(ref.sim) == fingerprint(r),
                   "departure order differs from the binary-heap reference");

    ScheduleOutputs out;
    // Modeled cycles come from the cycle-accurate circuit: the run itself
    // on the model backend, a model run of the same inputs otherwise.
    if (w.backend == baselines::SorterBackend::kModel) {
        out.model_cycles = run.model_cycles;
        out.model_ops = run.queue_ops;
    } else {
        const RunResult model = run_once(
            w, [&] { return make_queue(w, baselines::SorterBackend::kModel); }, seed,
            nullptr);
        checks.require(fingerprint(model.sim) == fingerprint(r),
                       "ffs departure order differs from the model backend");
        out.model_cycles = model.model_cycles;
        out.model_ops = model.queue_ops;
    }
    checks.require(out.model_cycles > 0 && out.model_ops > 0,
                   "modeled circuit spent no cycles");

    // Quantized ranks may serve packets whose exact finish times share a
    // tag step in either order; a step of virtual time passes in at most
    // step * (sum of weights) / r of real time.
    double weight_sum = 0;
    for (const auto wt : weights) weight_sum += wt;
    const double step_s = wfq::TagQuantizer(w.rank_granularity_bits).tag_step_virtual() *
                          weight_sum / static_cast<double>(kLinkBps);
    const auto gps = analysis::compare_with_gps(r.records, weights, kLinkBps);
    checks.require(gps.worst_lag_s <= 2.0 * gps.bound_s + step_s,
                   "a packet lagged its GPS finish by more than 2 Lmax/r + one tag step");
    out.gps_mean_lag_us = gps.mean_lag_s * 1e6;

    const auto delays = analysis::per_flow_delays(r.records, weights.size());
    for (std::size_t f = 0; f < kVoipFlows; ++f)
        out.voip_p99_us = std::max(out.voip_p99_us, delays[f].p99_delay_us);
    return out;
}

// --- result printing ------------------------------------------------------

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                    metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
}

// --- isolated layers (--trace 1) ------------------------------------------

/// Fast quartile of per-chunk ns/op. The isolated rows run few chunks,
/// so they use a quartile where the end-to-end runs use the fastest.
double fast_ns(const std::vector<double>& samples) { return quantile(samples, 0.25); }

/// Repeat `chunk` (which times its own measured part and returns
/// {ops, seconds}) until `budget_s` has passed and at least three chunks
/// ran; returns the fast-quartile ns/op over chunks.
template <class Chunk>
double ns_per_op(double budget_s, Chunk&& chunk) {
    std::vector<double> samples;
    const auto t0 = SteadyClock::now();
    while (samples.size() < 3 || seconds_since(t0) < budget_s) {
        const auto [ops, sec] = chunk();
        samples.push_back(sec * 1e9 / static_cast<double>(ops));
    }
    return fast_ns(samples);
}

/// Distinct tags on a sliding window: each step advances 1..4 values (mod
/// the tag space); callers keep at most `live + steps` values at once, so
/// the window never laps itself.
class TagWindow {
public:
    TagWindow(unsigned tag_bits, std::uint64_t seed)
        : mask_((std::uint64_t{1} << tag_bits) - 1), rng_(seed) {}

    std::uint64_t next() {
        cursor_ = (cursor_ + 1 + rng_.next_below(4)) & mask_;
        return cursor_;
    }

private:
    std::uint64_t mask_;
    std::uint64_t cursor_ = 0;
    Rng rng_;
};

/// Replay a recorded queue op stream on any sorter-like structure; returns
/// the number of pops that differ from the recording.
template <class Sorter>
std::uint64_t replay(Sorter& s, const std::vector<Op>& ops) {
    std::uint64_t mismatches = 0;
    for (const Op& op : ops) {
        if (op.insert) {
            s.insert(op.tag, op.payload);
        } else {
            const auto e = s.pop_min();
            mismatches += !e || e->tag != op.tag || e->payload != op.payload;
        }
    }
    return mismatches;
}

/// Each layer in isolation at the workload's geometry. Returns the bare
/// sorter ns/op of the workload's backend (the e2e/sorter denominator).
double measure_layers(const Workload& w, std::uint64_t seed, double budget_s,
                      const std::vector<Op>& ops, const std::vector<Event>& events,
                      std::vector<Metric>& out, Checks& checks) {
    const tree::TreeGeometry geom = w.geometry();
    const unsigned tag_bits = geom.tag_bits();
    const core::TagSorter::Config sorter_cfg = sorter_config(w);
    const unsigned payload_bits = sorter_cfg.payload_bits;
    // Ops per chunk of the synthetic rows and values live below them:
    // at most 4 (live + steps) <= 3/4 of the tag space.
    const std::uint64_t space = std::uint64_t{1} << tag_bits;
    const std::size_t kSteps = static_cast<std::size_t>(std::min<std::uint64_t>(4096, space / 8));
    const std::size_t kLive = static_cast<std::size_t>(std::min<std::uint64_t>(1024, space / 16));

    // hw::Sram: the unprotected fast lane (read, write) and a SECDED read.
    {
        hw::Simulation sim;
        hw::Sram& plain = sim.make_sram("bench-plain", 4096, 64);
        hw::Sram& secded = sim.make_sram("bench-secded", 4096, 64);
        secded.enable_protection(fault::Protection::kSecded);
        Rng rng(seed + 1);
        std::vector<std::size_t> addrs(kSteps);
        for (auto& a : addrs) a = rng.next_below(4096);
        std::uint64_t sink = 0;
        const auto reads = [&](hw::Sram& m) {
            return ns_per_op(budget_s, [&] {
                const auto t0 = SteadyClock::now();
                for (const std::size_t a : addrs) {
                    sink += m.read(a);
                    sim.clock().advance();
                }
                return std::pair{addrs.size(), seconds_since(t0)};
            });
        };
        out.push_back({"sram_read_ns", reads(plain), "ns"});
        out.push_back({"sram_write_ns",
                       ns_per_op(budget_s,
                                 [&] {
                                     const auto t0 = SteadyClock::now();
                                     for (const std::size_t a : addrs) {
                                         plain.write(a, a ^ sink);
                                         sim.clock().advance();
                                     }
                                     return std::pair{addrs.size(), seconds_since(t0)};
                                 }),
                       "ns"});
        out.push_back({"sram_secded_read_ns", reads(secded), "ns"});
        g_sink = sink;
    }

    // tree::MultibitTree: search-and-insert and erase on a sliding window,
    // with the behavioural matcher and the select-lookahead netlist.
    const auto tree_row = [&](matcher::MatcherEngine& engine, double& insert_ns,
                              double& erase_ns) {
        hw::Simulation sim;
        tree::MultibitTree tree({geom, 2}, sim, engine);
        TagWindow window(tag_bits, seed + 2);
        std::vector<std::uint64_t> live;
        for (std::size_t i = 0; i < kLive; ++i) {
            live.push_back(window.next());
            tree.search_and_insert(live.back());
        }
        std::vector<double> ins, era;
        std::vector<std::uint64_t> fresh(kSteps);
        const auto t_start = SteadyClock::now();
        while (ins.size() < 3 || seconds_since(t_start) < budget_s) {
            for (auto& v : fresh) v = window.next();
            auto t0 = SteadyClock::now();
            for (const std::uint64_t v : fresh) tree.search_and_insert(v);
            ins.push_back(seconds_since(t0) * 1e9 / kSteps);
            live.insert(live.end(), fresh.begin(), fresh.end());
            t0 = SteadyClock::now();
            for (std::size_t i = 0; i < kSteps; ++i) tree.erase(live[i]);
            era.push_back(seconds_since(t0) * 1e9 / kSteps);
            live.erase(live.begin(), live.begin() + kSteps);
        }
        checks.require(tree.marker_count() == live.size(), "tree marker count drifted");
        insert_ns = fast_ns(ins);
        erase_ns = fast_ns(era);
    };
    {
        matcher::BehavioralMatcher behavioral;
        double insert_ns = 0, erase_ns = 0;
        tree_row(behavioral, insert_ns, erase_ns);
        out.push_back({"tree_insert_ns", insert_ns, "ns"});
        out.push_back({"tree_erase_ns", erase_ns, "ns"});
        matcher::NetlistMatcher netlist(matcher::MatcherKind::SelectLookahead);
        tree_row(netlist, insert_ns, erase_ns);
        out.push_back({"tree_netlist_insert_ns", insert_ns, "ns"});
    }

    // storage::TranslationTable (flat at 20 bits, tiered at 32).
    {
        hw::Simulation sim;
        storage::TranslationTable table({tag_bits, 20}, sim);
        TagWindow window(tag_bits, seed + 3);
        Rng rng(seed + 4);
        std::vector<std::uint64_t> live;
        std::vector<double> set_ns, lookup_ns;
        std::vector<std::uint64_t> fresh(kSteps), probes(kSteps);
        std::uint64_t found = 0;
        const auto t_start = SteadyClock::now();
        while (set_ns.size() < 3 || seconds_since(t_start) < budget_s) {
            for (auto& v : fresh) v = window.next();
            auto t0 = SteadyClock::now();
            for (std::size_t i = 0; i < kSteps; ++i) {
                table.set(fresh[i], static_cast<storage::Addr>(i));
                sim.clock().advance();
            }
            set_ns.push_back(seconds_since(t0) * 1e9 / kSteps);
            live.insert(live.end(), fresh.begin(), fresh.end());
            for (auto& p : probes) p = live[rng.next_below(live.size())];
            t0 = SteadyClock::now();
            for (const std::uint64_t p : probes) {
                found += table.lookup(p).has_value();
                sim.clock().advance();
            }
            lookup_ns.push_back(seconds_since(t0) * 1e9 / kSteps);
            const std::size_t leave = live.size() - kLive;
            for (std::size_t i = 0; i < leave; ++i) {
                table.invalidate(live[i]);
                sim.clock().advance();
            }
            live.erase(live.begin(), live.begin() + static_cast<std::ptrdiff_t>(leave));
        }
        checks.require(found == kSteps * lookup_ns.size(),
                       "translation lookup missed a live entry");
        out.push_back({"xlat_set_ns", fast_ns(set_ns), "ns"});
        out.push_back({"xlat_lookup_ns", fast_ns(lookup_ns), "ns"});
    }

    // storage::LinkedTagStore: the 4-cycle insert FSM and the head pop,
    // FIFO-style (insert after the tail, pop the head).
    {
        hw::Simulation sim;
        storage::LinkedTagStore store({kCapacity, tag_bits, payload_bits}, sim);
        const std::uint64_t tag_mask = (std::uint64_t{1} << tag_bits) - 1;
        const std::uint64_t payload_mask = (std::uint64_t{1} << payload_bits) - 1;
        std::uint64_t tag = 0;
        storage::Addr tail = store.insert_at_head({0, 0});
        for (std::size_t i = 1; i < kLive; ++i)
            tail = store.insert_after(tail, {++tag & tag_mask, 0});
        out.push_back(
            {"list_op_ns",
             ns_per_op(budget_s,
                       [&] {
                           const auto t0 = SteadyClock::now();
                           for (std::size_t i = 0; i < kSteps; ++i) {
                               ++tag;
                               tail = store.insert_after(
                                   tail, {tag & tag_mask,
                                          static_cast<std::uint32_t>(tag & payload_mask)});
                               g_sink = store.pop_head()->tag;
                           }
                           return std::pair{2 * kSteps, seconds_since(t0)};
                       }),
             "ns"});
        checks.require(store.size() == kLive, "list length drifted");
    }

    // Exact modeled counts from one TagSorter replay of the recorded stream
    // (one traffic sample; the end-to-end model_cycles_per_op covers all).
    const double n_ops = static_cast<double>(ops.size());
    std::uint64_t mismatches = 0;
    {
        hw::Simulation sim;
        core::TagSorter sorter(sorter_cfg, sim);
        mismatches += replay(sorter, ops);
        const auto& st = sorter.stats();
        checks.require(st.insert_cycles_total + st.pop_cycles_total == sim.clock().now(),
                       "TagSorter per-op cycles do not sum to the modeled clock");
        const auto& ts = sorter.table().stats();
        std::uint64_t max_rank = 0;
        for (const Op& op : ops) max_rank = std::max(max_rank, op.tag);
        std::fprintf(stderr, "largest rank %llu: %.3g laps of the %u-bit tag space, "
                             "%llu sector invalidations\n",
                     static_cast<unsigned long long>(max_rank),
                     static_cast<double>(max_rank) / static_cast<double>(space), tag_bits,
                     static_cast<unsigned long long>(st.sector_invalidations));
        out.push_back({"rank_laps", static_cast<double>(max_rank) / static_cast<double>(space),
                       "ratio"});
        out.push_back({"sector_invalidations", static_cast<double>(st.sector_invalidations),
                       "count"});
        out.push_back({"replay_cycles_per_op",
                       static_cast<double>(sim.clock().now()) / n_ops, "cycles"});
        out.push_back(
            {"worst_op_cycles",
             static_cast<double>(std::max(st.worst_insert_cycles, st.worst_pop_cycles)),
             "cycles"});
        out.push_back({"sram_accesses_per_op",
                       static_cast<double>(sim.total_memory_stats().total()) / n_ops,
                       "count"});
        out.push_back({"tree_lookups_per_op",
                       static_cast<double>(sorter.search_tree().stats().node_lookups) /
                           n_ops,
                       "count"});
        out.push_back({"xlat_onchip_ratio",
                       ts.lookups ? static_cast<double>(ts.lookups - ts.bulk_misses) /
                                        static_cast<double>(ts.lookups)
                                  : 1.0,
                       "ratio"});
    }

    // Sorter-level rows replay the recorded stream on a fresh structure
    // per chunk (construction untimed), every pop checked.
    const auto replay_row = [&](auto make) {
        return ns_per_op(budget_s, [&] {
            auto s = make();
            const auto t0 = SteadyClock::now();
            mismatches += replay(*s, ops);
            return std::pair{ops.size(), seconds_since(t0)};
        });
    };
    struct ModelSorter {
        hw::Simulation sim;
        core::TagSorter sorter;
        explicit ModelSorter(const core::TagSorter::Config& c) : sorter(c, sim) {}
        void insert(std::uint64_t t, std::uint32_t p) { sorter.insert(t, p); }
        auto pop_min() { return sorter.pop_min(); }
    };
    struct ModelSharded {
        hw::Simulation sim;
        core::ShardedSorter sorter;
        explicit ModelSharded(const core::TagSorter::Config& c) : sorter({c, 1}, sim) {}
        void insert(std::uint64_t t, std::uint32_t p) { sorter.insert(t, p); }
        auto pop_min() { return sorter.pop_min(); }
    };
    core::FfsSorter::Config ffs_cfg = sorter_cfg;
    ffs_cfg.payload_bits = 32;
    const double tagsorter_ns =
        replay_row([&] { return std::make_unique<ModelSorter>(sorter_cfg); });
    const double sharded_ns =
        replay_row([&] { return std::make_unique<ModelSharded>(sorter_cfg); });
    const double ffs_ns =
        replay_row([&] { return std::make_unique<core::FfsSorter>(ffs_cfg); });
    const double queue_ns = replay_row([&] { return make_queue(w, w.backend); });
    const double heap_ns = replay_row(make_heap);
    checks.require(mismatches == 0, "a sorter replay popped a different sequence");
    const double sorter_ns =
        w.backend == baselines::SorterBackend::kModel ? tagsorter_ns : ffs_ns;
    out.push_back({"tagsorter_op_ns", tagsorter_ns, "ns"});
    out.push_back({"sharded_n1_op_ns", sharded_ns, "ns"});
    out.push_back({"ffs_op_ns", ffs_ns, "ns"});
    out.push_back({"queue_op_ns", queue_ns, "ns"});
    out.push_back({"heap_op_ns", heap_ns, "ns"});
    out.push_back({"wrapper_over_bare", sharded_ns / tagsorter_ns, "ratio"});
    out.push_back({"adapter_over_bare", queue_ns / sorter_ns, "ratio"});

    // Rank computation, virtual time and the packet buffer replay the
    // recorded scheduler events.
    const std::vector<std::uint32_t> weights = flow_weights(seed);
    out.push_back(
        {"rank_wfq_ns",
         ns_per_op(budget_s,
                   [&] {
                       auto rank = sched_prog::make_rank_function(
                           sched_prog::RankPolicy::kWfq, sched_config(w).rank);
                       for (const auto wt : weights) rank->add_flow(wt);
                       std::uint64_t sink = 0;
                       const auto t0 = SteadyClock::now();
                       for (const Event& e : events) {
                           if (e.enqueue)
                               sink += rank->on_arrival(e.packet, e.now).rank;
                           else
                               rank->on_service(e.packet, e.now);
                       }
                       const double sec = seconds_since(t0);
                       g_sink = sink;
                       return std::pair{events.size(), sec};
                   }),
         "ns"});
    std::size_t arrivals = 0;
    std::uint64_t max_id = 0;
    for (const Event& e : events) {
        arrivals += e.enqueue;
        max_id = std::max(max_id, e.packet.id);
    }
    out.push_back({"vtime_ns",
                   ns_per_op(budget_s,
                             [&] {
                                 wfq::WfqVirtualTime vt(kLinkBps);
                                 for (const auto wt : weights) vt.add_flow(wt);
                                 std::uint64_t sink = 0;
                                 const auto t0 = SteadyClock::now();
                                 for (const Event& e : events)
                                     if (e.enqueue)
                                         sink += vt.on_arrival(e.packet.flow, e.now,
                                                               e.packet.size_bits())
                                                     .raw();
                                 const double sec = seconds_since(t0);
                                 g_sink = sink;
                                 return std::pair{arrivals, sec};
                             }),
                   "ns"});
    std::vector<scheduler::BufferRef> refs(max_id + 1);
    bool buffer_ok = true;
    out.push_back(
        {"buffer_op_ns",
         ns_per_op(budget_s,
                   [&] {
                       scheduler::SharedPacketBuffer buffer(sched_config(w).buffer);
                       const auto t0 = SteadyClock::now();
                       for (const Event& e : events) {
                           if (e.enqueue) {
                               const auto ref = buffer.store(e.packet);
                               buffer_ok &= ref.has_value();
                               refs[e.packet.id] = ref.value_or(0);
                           } else {
                               buffer_ok &=
                                   buffer.retrieve(refs[e.packet.id]).id == e.packet.id;
                           }
                       }
                       return std::pair{events.size(), seconds_since(t0)};
                   }),
         "ns"});
    checks.require(buffer_ok, "packet buffer returned the wrong packet");
    return sorter_ns;
}

int usage() {
    std::fprintf(stderr,
                 "usage: wfqs_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\nworkloads:");
    for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    const Workload* workload = nullptr;
    std::optional<std::uint64_t> seed;
    double seconds = 0;
    int trace = -1;
    if (argc % 2 == 0) return usage();
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        char* end = nullptr;
        if (key == "--workload") {
            for (const auto& w : kWorkloads)
                if (val == w.name) workload = &w;
        } else if (key == "--seed") {
            seed = std::strtoull(val.c_str(), &end, 10);
            if (val.empty() || val[0] == '-' || *end != '\0') return usage();
        } else if (key == "--seconds") {
            seconds = std::strtod(val.c_str(), &end);
            if (val.empty() || *end != '\0') return usage();
        } else if (key == "--trace") {
            if (val == "0" || val == "1") trace = val[0] - '0';
        } else {
            return usage();
        }
    }
    if (!workload || !seed || !(seconds > 0) || trace < 0) return usage();
    const Workload& w = *workload;
    const QueueMaker make = [&] { return make_queue(w, w.backend); };

    Checks checks;
    std::vector<Metric> metrics;
    std::uint64_t attempted = 0, failed = 0;
    try {
        // Runs cycle through the kSamples traffic samples of this seed. The
        // first run of each sample is verified (untimed) and every later
        // run of it must schedule identically.
        std::vector<std::optional<std::uint64_t>> prints(kSamples);
        ScheduleOutputs outputs;
        const auto check_run = [&](unsigned k, const RunResult& r) {
            const std::uint64_t print = fingerprint(r.sim);
            if (prints[k]) {
                checks.require(print == *prints[k], "repeated runs scheduled differently");
                return;
            }
            prints[k] = print;
            const ScheduleOutputs o = verify_schedule(w, sample_seed(*seed, k), r, checks);
            outputs.model_cycles += o.model_cycles;
            outputs.model_ops += o.model_ops;
            outputs.gps_mean_lag_us += o.gps_mean_lag_us / kSamples;
            outputs.voip_p99_us += o.voip_p99_us / kSamples;
        };

        // Untraced runs: the whole budget at --trace 0, a quarter at 1. Each
        // sample's repeats reduce to the fastest: other tenants of a shared
        // host only ever slow a repeat down, and their load comes in bursts
        // of a second or two, so the fastest repeat tracks the program's own
        // speed far more steadily than the median. Throughput is all
        // samples' work over the sum of those times, so every seed weighs
        // its samples alike.
        const double untraced_budget = trace ? 0.25 * seconds : seconds;
        std::vector<double> setup_s;
        std::vector<std::vector<double>> run_s(kSamples);
        std::uint64_t sample_ops = 0, sample_pkts = 0;
        run_once(w, make, sample_seed(*seed, 0), nullptr);  // untimed warm-up
        const auto t_start = SteadyClock::now();
        for (unsigned i = 0; i < kSamples || seconds_since(t_start) < untraced_budget; ++i) {
            const unsigned k = i % kSamples;
            RunResult r = run_once(w, make, sample_seed(*seed, k), nullptr);
            attempted += scheduler_ops(r.sim);
            failed += r.sim.dropped_packets;
            if (i < kSamples) {
                sample_ops += scheduler_ops(r.sim);
                sample_pkts += r.sim.records.size();
            }
            run_s[k].push_back(r.run_s);
            check_run(k, r);
            if (!trace && k == kSamples - 1)
                time_setups(w, make, *seed, kSetupsPerRound, setup_s);
        }
        double fast_run_s = 0;
        for (const auto& v : run_s) fast_run_s += *std::min_element(v.begin(), v.end());

        if (!trace) {
            metrics.push_back(
                {"ops_per_s", static_cast<double>(sample_ops) / fast_run_s, "1/s"});
            metrics.push_back({"setup_s", quantile(setup_s, 0.5), "s"});
            metrics.push_back({"model_cycles_per_op",
                               static_cast<double>(outputs.model_cycles) /
                                   static_cast<double>(outputs.model_ops),
                               "cycles"});
            metrics.push_back({"gps_mean_lag_us", outputs.gps_mean_lag_us, "us"});
            metrics.push_back({"voip_p99_us", outputs.voip_p99_us, "us"});
        } else {
            // Traced runs: spans at the scheduler and queue boundaries. The
            // first one (sample 0) records the op and event streams the
            // isolated rows replay.
            std::vector<Op> ops;
            std::vector<Event> events;
            struct Breakdown {
                double total, driver, sched, queue;
            };
            std::vector<Breakdown> traced;
            const auto t_traced = SteadyClock::now();
            for (unsigned i = 0; i < kSamples || seconds_since(t_traced) < 0.25 * seconds;
                 ++i) {
                const unsigned k = i % kSamples;
                Spans spans;
                if (i == 0) {
                    spans.ops = &ops;
                    spans.events = &events;
                }
                const RunResult r = run_once(w, make, sample_seed(*seed, k), &spans);
                const double ns = 1e9 / static_cast<double>(r.sim.records.size());
                traced.push_back({r.run_s * ns, (r.run_s - spans.sched_s) * ns,
                                  (spans.sched_s - spans.queue_s) * ns, spans.queue_s * ns});
                check_run(k, r);
            }
            // The fastest traced run, so its layer shares sum to it.
            const Breakdown& b = *std::min_element(
                traced.begin(), traced.end(),
                [](const Breakdown& x, const Breakdown& y) { return x.total < y.total; });
            const double sim_ns = fast_run_s * 1e9 / static_cast<double>(sample_pkts);
            metrics.push_back({"sim_ns_per_pkt", sim_ns, "ns"});
            metrics.push_back({"traced_ns_per_pkt", b.total, "ns"});
            metrics.push_back({"driver_self_ns_per_pkt", b.driver, "ns"});
            metrics.push_back({"sched_self_ns_per_pkt", b.sched, "ns"});
            metrics.push_back({"queue_ns_per_pkt", b.queue, "ns"});

            // The other half of the budget goes to the 15 timed isolated rows.
            const double row_budget = std::max(0.1, 0.5 * seconds / 15);
            const double sorter_ns = measure_layers(w, sample_seed(*seed, 0), row_budget,
                                                    ops, events, metrics, checks);
            // A delivered packet is two scheduler ops.
            metrics.push_back({"e2e_over_sorter", sim_ns / 2 / sorter_ns, "ratio"});
        }
    } catch (const std::exception& e) {
        checks.failures.push_back(std::string("exception: ") + e.what());
        ++failed;
    }
    if (attempted == 0) attempted = 1;
    for (const auto& f : checks.failures) std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
    print_result(checks.failures.empty(), attempted, failed, metrics);
    return 0;
}
