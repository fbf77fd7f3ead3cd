#include "obs/metrics.hpp"

#include <sstream>

#include "common/assert.hpp"
#include "common/table.hpp"
#include "obs/json.hpp"

namespace wfqs::obs {

RunningStats CycleHistogram::stats() const {
    RunningStats s = stats_;
    if (icount_ > 0) {
        // m2 in long double: isumsq_ can approach 2^64, where a double's
        // 53-bit mantissa makes isumsq - n*mean^2 cancel catastrophically.
        const long double n = static_cast<long double>(icount_);
        const long double sum = static_cast<long double>(isum_);
        const long double mean = sum / n;
        const long double m2 =
            static_cast<long double>(isumsq_) - n * mean * mean;
        s.merge(RunningStats::from_moments(
            icount_, static_cast<double>(mean), static_cast<double>(m2),
            static_cast<double>(imin_), static_cast<double>(imax_),
            static_cast<double>(sum)));
    }
    return s;
}

double CycleHistogram::approx_quantile(double q) const {
    WFQS_REQUIRE(q >= 0.0 && q <= 1.0, "quantile must be in [0,1]");
    const RunningStats s = stats();
    if (s.count() == 0) return 0.0;
    const std::uint64_t target =
        static_cast<std::uint64_t>(q * static_cast<double>(s.count() - 1)) + 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < hist_.bin_count(); ++i) {
        seen += hist_.bin(i);
        if (seen >= target) return std::min(hist_.bin_hi(i), s.max());
    }
    return s.max();
}

void CycleHistogram::write_json(JsonWriter& w) const {
    const RunningStats stats_combined = stats();
    w.begin_object();
    w.field("count", stats_combined.count());
    w.field("mean", stats_combined.mean());
    w.field("stddev", stats_combined.stddev());
    w.field("min", stats_combined.min());
    w.field("max", stats_combined.max());
    w.field("p50", approx_quantile(0.50));
    w.field("p90", approx_quantile(0.90));
    w.field("p99", approx_quantile(0.99));
    w.field("nan_rejects", hist_.nan_rejects());
    w.key("bins").begin_object();
    w.field("lo", hist_.bin_lo(0));
    w.field("hi", hist_.bin_hi(hist_.bin_count() - 1));
    w.key("counts").begin_array();
    for (std::size_t i = 0; i < hist_.bin_count(); ++i) w.value(hist_.bin(i));
    w.end_array();
    w.end_object();
    w.end_object();
}

namespace {

template <typename Map>
void require_fresh_name(const Map& m, const std::string& name, const char* kind) {
    WFQS_REQUIRE(m.find(name) == m.end(),
                 "metric name '" + name + "' already registered as a " + kind);
}

}  // namespace

Counter& MetricsRegistry::counter(const std::string& name) {
    auto it = counters_.find(name);
    if (it == counters_.end()) {
        require_fresh_name(counter_fns_, name, "counter view");
        it = counters_.emplace(name, std::make_unique<Counter>()).first;
    }
    return *it->second;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
    auto it = gauges_.find(name);
    if (it == gauges_.end()) {
        require_fresh_name(gauge_fns_, name, "gauge view");
        it = gauges_.emplace(name, std::make_unique<Gauge>()).first;
    }
    return *it->second;
}

CycleHistogram& MetricsRegistry::histogram(const std::string& name, double lo,
                                           double hi, std::size_t bins) {
    auto it = owned_histograms_.find(name);
    if (it == owned_histograms_.end()) {
        require_fresh_name(histogram_views_, name, "histogram view");
        it = owned_histograms_
                 .emplace(name, std::make_unique<CycleHistogram>(lo, hi, bins))
                 .first;
    }
    return *it->second;
}

void MetricsRegistry::register_counter_fn(const std::string& name,
                                          std::function<std::uint64_t()> fn) {
    require_fresh_name(counters_, name, "counter");
    require_fresh_name(counter_fns_, name, "counter view");
    counter_fns_.emplace(name, std::move(fn));
}

void MetricsRegistry::register_gauge_fn(const std::string& name,
                                        std::function<double()> fn) {
    require_fresh_name(gauges_, name, "gauge");
    require_fresh_name(gauge_fns_, name, "gauge view");
    gauge_fns_.emplace(name, std::move(fn));
}

void MetricsRegistry::register_histogram(const std::string& name,
                                         const CycleHistogram* h) {
    WFQS_REQUIRE(h != nullptr, "histogram view must not be null");
    require_fresh_name(owned_histograms_, name, "histogram");
    require_fresh_name(histogram_views_, name, "histogram view");
    histogram_views_.emplace(name, h);
}

std::map<std::string, std::uint64_t> MetricsRegistry::counter_values() const {
    std::map<std::string, std::uint64_t> out;
    for (const auto& [name, c] : counters_) out.emplace(name, c->value());
    for (const auto& [name, fn] : counter_fns_) out.emplace(name, fn());
    return out;
}

std::map<std::string, double> MetricsRegistry::gauge_values() const {
    std::map<std::string, double> out;
    for (const auto& [name, g] : gauges_) out.emplace(name, g->value());
    for (const auto& [name, fn] : gauge_fns_) out.emplace(name, fn());
    return out;
}

std::map<std::string, const CycleHistogram*> MetricsRegistry::histograms() const {
    std::map<std::string, const CycleHistogram*> out;
    for (const auto& [name, h] : owned_histograms_) out.emplace(name, h.get());
    for (const auto& [name, h] : histogram_views_) out.emplace(name, h);
    return out;
}

bool MetricsRegistry::contains(const std::string& name) const {
    return counters_.count(name) || counter_fns_.count(name) ||
           gauges_.count(name) || gauge_fns_.count(name) ||
           owned_histograms_.count(name) || histogram_views_.count(name);
}

std::size_t MetricsRegistry::size() const {
    return counters_.size() + counter_fns_.size() + gauges_.size() +
           gauge_fns_.size() + owned_histograms_.size() + histogram_views_.size();
}

void MetricsRegistry::write_json(JsonWriter& w) const {
    w.begin_object();
    w.key("counters").begin_object();
    for (const auto& [name, v] : counter_values()) w.field(name, v);
    w.end_object();
    w.key("gauges").begin_object();
    for (const auto& [name, v] : gauge_values()) w.field(name, v);
    w.end_object();
    w.key("histograms").begin_object();
    for (const auto& [name, h] : histograms()) {
        w.key(name);
        h->write_json(w);
    }
    w.end_object();
    w.end_object();
}

std::string MetricsRegistry::to_json() const {
    std::ostringstream os;
    JsonWriter w(os);
    write_json(w);
    return os.str();
}

std::string MetricsRegistry::to_table() const {
    TextTable t({"metric", "kind", "value"});
    for (const auto& [name, v] : counter_values())
        t.add_row({name, "counter", TextTable::num(v)});
    for (const auto& [name, v] : gauge_values())
        t.add_row({name, "gauge", TextTable::num(v, 4)});
    for (const auto& [name, h] : histograms()) {
        const auto s = h->stats();
        t.add_row({name, "histogram",
                   "n=" + TextTable::num(s.count()) +
                       " mean=" + TextTable::num(s.mean(), 2) +
                       " p99=" + TextTable::num(h->approx_quantile(0.99), 2) +
                       " max=" + TextTable::num(s.max(), 2)});
    }
    return t.render();
}

}  // namespace wfqs::obs
