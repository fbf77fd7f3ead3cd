#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace wfqs {

void RunningStats::add(double x) {
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

double RunningStats::mean() const { return n_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
    return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const { return n_ == 0 ? 0.0 : min_; }

double RunningStats::max() const { return n_ == 0 ? 0.0 : max_; }

void RunningStats::merge(const RunningStats& other) {
    if (other.n_ == 0) return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(n_);
    const double nb = static_cast<double>(other.n_);
    const double delta = other.mean_ - mean_;
    const double combined_mean = mean_ + delta * nb / (na + nb);
    m2_ = m2_ + other.m2_ + delta * delta * na * nb / (na + nb);
    mean_ = combined_mean;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    sum_ += other.sum_;
    n_ += other.n_;
}

RunningStats RunningStats::from_moments(std::uint64_t n, double mean, double m2,
                                        double min, double max, double sum) {
    RunningStats s;
    if (n == 0) return s;
    s.n_ = n;
    s.mean_ = mean;
    s.m2_ = m2 < 0.0 ? 0.0 : m2;  // guard tiny negative rounding residue
    s.min_ = min;
    s.max_ = max;
    s.sum_ = sum;
    return s;
}

double Quantiles::quantile(double q) {
    WFQS_ASSERT(q >= 0.0 && q <= 1.0);
    WFQS_ASSERT_MSG(!samples_.empty(), "quantile of empty sample set");
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
    const double rank = q * static_cast<double>(samples_.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
    WFQS_REQUIRE(hi > lo, "histogram range must be non-empty");
    WFQS_REQUIRE(bins > 0, "histogram needs at least one bin");
}

void Histogram::add(double x) {
    if (std::isnan(x)) {
        // static_cast of NaN to an integer is UB; count it separately
        // instead of crediting an arbitrary bin.
        ++nan_rejects_;
        return;
    }
    const double span = hi_ - lo_;
    double idx = (x - lo_) / span * static_cast<double>(counts_.size());
    if (idx < 0) idx = 0;
    std::size_t i = static_cast<std::size_t>(idx);
    if (i >= counts_.size()) i = counts_.size() - 1;
    ++counts_[i];
    ++total_;
}

double Histogram::bin_lo(std::size_t i) const {
    return lo_ + (hi_ - lo_) * static_cast<double>(i) / static_cast<double>(counts_.size());
}

double Histogram::bin_hi(std::size_t i) const { return bin_lo(i + 1); }

void Histogram::reset() {
    std::fill(counts_.begin(), counts_.end(), 0);
    total_ = 0;
    nan_rejects_ = 0;
}

std::string Histogram::ascii_bars(std::size_t height) const {
    std::uint64_t peak = 0;
    for (auto c : counts_) peak = std::max(peak, c);
    std::string out;
    if (peak == 0) peak = 1;
    for (std::size_t row = height; row-- > 0;) {
        const std::uint64_t threshold = peak * row / height;
        for (auto c : counts_) out += (c > threshold) ? '#' : ' ';
        out += '\n';
    }
    return out;
}

}  // namespace wfqs
