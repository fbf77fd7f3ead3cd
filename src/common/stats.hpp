// Statistics accumulators used by the analysis module and benches.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace wfqs {

/// Streaming mean/variance/min/max (Welford). O(1) memory; exact min/max.
class RunningStats {
public:
    void add(double x);

    std::uint64_t count() const { return n_; }
    double mean() const;
    double variance() const;  ///< Sample variance (n-1 denominator).
    double stddev() const;
    double min() const;
    double max() const;
    double sum() const { return sum_; }

    void merge(const RunningStats& other);

    /// Reconstitute an accumulator from externally tracked moments (the
    /// integer fast lane of obs::CycleHistogram). `m2` is the sum of
    /// squared deviations from `mean` (n * variance_population).
    static RunningStats from_moments(std::uint64_t n, double mean, double m2,
                                     double min, double max, double sum);

private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/// Reservoir of samples with exact quantiles. Stores everything; callers
/// that stream millions of points should use Histogram instead.
class Quantiles {
public:
    void add(double x) { samples_.push_back(x); sorted_ = false; }
    std::uint64_t count() const { return samples_.size(); }
    /// q in [0,1]; q=0.5 is the median. Linear interpolation between ranks.
    double quantile(double q);

private:
    std::vector<double> samples_;
    bool sorted_ = true;
};

/// Fixed-bin histogram over [lo, hi); out-of-range samples clamp into the
/// first/last bin. NaN samples are rejected into a dedicated counter —
/// casting NaN to an index is UB and would land in an arbitrary bin.
/// Used to reproduce the Fig. 6 tag-value distribution.
class Histogram {
public:
    Histogram(double lo, double hi, std::size_t bins);

    void add(double x);
    /// Direct single-bin credit for callers that already know the bin
    /// index (the integer fast lane). Precondition: bin < bin_count().
    void bump(std::size_t bin) {
        ++counts_[bin];
        ++total_;
    }
    std::uint64_t total() const { return total_; }
    std::uint64_t nan_rejects() const { return nan_rejects_; }
    std::size_t bin_count() const { return counts_.size(); }
    std::uint64_t bin(std::size_t i) const { return counts_.at(i); }
    double bin_lo(std::size_t i) const;
    double bin_hi(std::size_t i) const;
    void reset();

    /// Render as a row of bar heights (ASCII), normalised to `width` chars.
    std::string ascii_bars(std::size_t height = 8) const;

private:
    double lo_;
    double hi_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
    std::uint64_t nan_rejects_ = 0;
};

}  // namespace wfqs
