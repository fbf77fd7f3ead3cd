#include "sched_prog/rank.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "wfq/tag_computer.hpp"
#include "wfq/virtual_clock.hpp"

namespace wfqs::sched_prog {
namespace {

/// STFQ/WFQ: rank = quantized virtual finish from the exact GPS clock.
class WfqRank final : public RankFunction {
public:
    explicit WfqRank(const RankConfig& cfg)
        : clock_(cfg.link_rate_bps), quantizer_(cfg.tag_granularity_bits) {}

    net::FlowId add_flow(std::uint32_t weight) override {
        return clock_.add_flow(weight);
    }
    RankSet on_arrival(const net::Packet& packet, net::TimeNs now) override {
        const Fixed finish = clock_.on_arrival(packet.flow, now, packet.size_bits());
        return {quantizer_.quantize(finish), 0};
    }
    std::string name() const override { return "wfq"; }

private:
    wfq::WfqVirtualTime clock_;
    wfq::TagQuantizer quantizer_;
};

/// WF2Q+: finish rank plus start rank, eligibility against the *exact*
/// GPS virtual time. A packet waits in start order until S <= V(t), then
/// joins the finish-order sorter, so a high-weight flow cannot run far
/// ahead of its GPS schedule (the worst-case fairness of WF2Q, ref [5]).
///
/// Why not the flat O(1) WF2Q+ clock of Bennett & Zhang: it advances at
/// r/Φ_total over all registered flows while GPS advances at
/// r/Φ_backlogged, so whenever part of the flow set idles it lags, a
/// newly active flow restarts "in the past" with artificially low tags,
/// and backlogged flows blow through the Parekh–Gallager departure bound
/// — by up to 3.4 Lmax/r in randomized 3–6-flow runs, invariant under
/// tag granularity. The differential harness caught that; with the exact
/// clock every served packet meets D_p <= F_gps + Lmax/r with zero slack
/// (the GPS-bound tests in tests/conformance_test.cpp).
class Wf2qRank final : public RankFunction {
public:
    explicit Wf2qRank(const RankConfig& cfg)
        : clock_(cfg.link_rate_bps), quantizer_(cfg.tag_granularity_bits) {}

    net::FlowId add_flow(std::uint32_t weight) override {
        return clock_.add_flow(weight);
    }
    RankSet on_arrival(const net::Packet& packet, net::TimeNs now) override {
        const Fixed finish = clock_.on_arrival(packet.flow, now, packet.size_bits());
        return {quantizer_.quantize(finish), quantizer_.quantize(clock_.last_start())};
    }
    bool two_stage() const override { return true; }
    std::uint64_t eligibility_horizon(net::TimeNs now) override {
        clock_.advance_to(now);
        return quantizer_.quantize(clock_.virtual_time());
    }
    std::string name() const override { return "wf2q"; }

private:
    wfq::WfqVirtualTime clock_;
    wfq::TagQuantizer quantizer_;
};

/// The self-clocked fair-queueing family (SCFQ, FBFQ) over a
/// wfq::TagComputer: rank = the quantized virtual finish tag, and the
/// served rank, mapped back to virtual time, drives the clock.
template <typename Computer>
class TagComputerRank final : public RankFunction {
public:
    TagComputerRank(const RankConfig& cfg, std::string name)
        : computer_(cfg.link_rate_bps),
          quantizer_(cfg.tag_granularity_bits),
          name_(std::move(name)) {}

    net::FlowId add_flow(std::uint32_t weight) override {
        return computer_.add_flow(weight);
    }
    RankSet on_arrival(const net::Packet& packet, net::TimeNs now) override {
        return {quantizer_.quantize(
                    computer_.on_arrival(packet.flow, now, packet.size_bits())),
                0};
    }
    void on_service_rank(std::uint64_t rank, net::TimeNs now) override {
        computer_.on_service_start(quantizer_.dequantize(rank), now);
    }
    std::string name() const override { return name_; }

private:
    Computer computer_;
    wfq::TagQuantizer quantizer_;
    std::string name_;
};

/// pFabric-style SRPT: rank = the flow's outstanding bytes the moment
/// the packet arrives (including itself). A flow's early packets carry
/// small ranks, a long flow's tail carries large ones, so short flows
/// finish first. on_service returns the served bytes to the budget.
class SrptRank final : public RankFunction {
public:
    explicit SrptRank(const RankConfig& cfg)
        : shift_(cfg.srpt_shift), max_rank_(cfg.max_rank) {}

    net::FlowId add_flow(std::uint32_t weight) override {
        (void)weight;  // SRPT ignores weights: size is the priority
        outstanding_.push_back(0);
        return static_cast<net::FlowId>(outstanding_.size() - 1);
    }
    RankSet on_arrival(const net::Packet& packet, net::TimeNs now) override {
        (void)now;
        WFQS_REQUIRE(packet.flow < outstanding_.size(), "unregistered flow");
        outstanding_[packet.flow] += packet.size_bytes;
        return {std::min(max_rank_, outstanding_[packet.flow] >> shift_), 0};
    }
    void on_service(const net::Packet& packet, net::TimeNs now) override {
        (void)now;
        WFQS_REQUIRE(packet.flow < outstanding_.size(), "unregistered flow");
        std::uint64_t& left = outstanding_[packet.flow];
        left -= std::min<std::uint64_t>(left, packet.size_bytes);
    }
    std::string name() const override { return "srpt"; }

private:
    unsigned shift_;
    std::uint64_t max_rank_;
    std::vector<std::uint64_t> outstanding_;
};

/// LSTF: rank = (arrival + slack budget) in coarse time units — an
/// arrival-stamped deadline. Heavier weights get tighter budgets, so the
/// policy degenerates to EDF over per-flow deadlines.
class LstfRank final : public RankFunction {
public:
    explicit LstfRank(const RankConfig& cfg)
        : base_slack_ns_(cfg.lstf_slack_ns),
          shift_(cfg.lstf_shift),
          max_rank_(cfg.max_rank) {}

    net::FlowId add_flow(std::uint32_t weight) override {
        slack_ns_.push_back(base_slack_ns_ / std::max<std::uint32_t>(1, weight));
        return static_cast<net::FlowId>(slack_ns_.size() - 1);
    }
    RankSet on_arrival(const net::Packet& packet, net::TimeNs now) override {
        WFQS_REQUIRE(packet.flow < slack_ns_.size(), "unregistered flow");
        return {std::min(max_rank_, (now + slack_ns_[packet.flow]) >> shift_), 0};
    }
    std::string name() const override { return "lstf"; }

private:
    std::uint64_t base_slack_ns_;
    unsigned shift_;
    std::uint64_t max_rank_;
    std::vector<std::uint64_t> slack_ns_;
};

/// Strict priority: the registered weight *is* the priority level (lower
/// value serves first), constant for the flow's lifetime.
class PrioRank final : public RankFunction {
public:
    explicit PrioRank(const RankConfig& cfg) : max_rank_(cfg.max_rank) {}

    net::FlowId add_flow(std::uint32_t weight) override {
        priority_.push_back(std::min<std::uint64_t>(max_rank_, weight));
        return static_cast<net::FlowId>(priority_.size() - 1);
    }
    RankSet on_arrival(const net::Packet& packet, net::TimeNs now) override {
        (void)now;
        WFQS_REQUIRE(packet.flow < priority_.size(), "unregistered flow");
        return {priority_[packet.flow], 0};
    }
    std::string name() const override { return "prio"; }

private:
    std::uint64_t max_rank_;
    std::vector<std::uint64_t> priority_;
};

}  // namespace

std::unique_ptr<RankFunction> make_rank_function(RankPolicy policy,
                                                 const RankConfig& config) {
    switch (policy) {
        case RankPolicy::kWfq: return std::make_unique<WfqRank>(config);
        case RankPolicy::kWf2q: return std::make_unique<Wf2qRank>(config);
        case RankPolicy::kSrpt: return std::make_unique<SrptRank>(config);
        case RankPolicy::kLstf: return std::make_unique<LstfRank>(config);
        case RankPolicy::kPrio: return std::make_unique<PrioRank>(config);
        case RankPolicy::kScfq:
            return std::make_unique<TagComputerRank<wfq::ScfqTagComputer>>(
                config, rank_policy_name(policy));
        case RankPolicy::kFbfq:
            return std::make_unique<TagComputerRank<wfq::FbfqTagComputer>>(
                config, rank_policy_name(policy));
    }
    WFQS_REQUIRE(false, "unknown rank policy");
    return nullptr;
}

const std::vector<RankPolicy>& all_rank_policies() {
    static const std::vector<RankPolicy> kAll = {
        RankPolicy::kWfq,  RankPolicy::kWf2q, RankPolicy::kSrpt, RankPolicy::kLstf,
        RankPolicy::kPrio, RankPolicy::kScfq, RankPolicy::kFbfq};
    return kAll;
}

std::string rank_policy_name(RankPolicy policy) {
    switch (policy) {
        case RankPolicy::kWfq: return "wfq";
        case RankPolicy::kWf2q: return "wf2q";
        case RankPolicy::kSrpt: return "srpt";
        case RankPolicy::kLstf: return "lstf";
        case RankPolicy::kPrio: return "prio";
        case RankPolicy::kScfq: return "scfq";
        case RankPolicy::kFbfq: return "fbfq";
    }
    return "?";
}

}  // namespace wfqs::sched_prog
