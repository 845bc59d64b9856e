// Descriptive statistics used across the library: streaming accumulators,
// histograms and the normal distribution functions the CPVSAD baseline's
// statistical test needs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

namespace vp {

// Single-pass accumulator for mean/variance (Welford's algorithm).
class RunningStats {
 public:
  // Inline: the Eq. 7 and shape passes call it once per sample, and a
  // call would cost as much as the update. The tree builds with
  // -ffp-contract=off, so inlining cannot fuse (and so re-round) the
  // multiply-adds: every caller gets the same bits.
  void add(double x) {
    if (n_ == 0) {
      min_ = max_ = x;
    } else {
      min_ = std::min(min_, x);
      max_ = std::max(max_, x);
    }
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }

  std::size_t count() const { return n_; }
  bool empty() const { return n_ == 0; }

  // Mean of the observed values; requires count() > 0.
  double mean() const;

  // Unbiased sample variance; requires count() > 1.
  double variance() const;

  // Square root of variance(); requires count() > 1.
  double stddev() const;

  // Population variance (divides by n); requires count() > 0.
  double population_variance() const;

  double min() const;
  double max() const;

  // Merges another accumulator into this one (parallel Welford).
  void merge(const RunningStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Batch helpers over a span of samples.
double mean(std::span<const double> xs);
double variance(std::span<const double> xs);           // unbiased, needs >= 2
double population_variance(std::span<const double> xs);  // needs >= 1
double stddev(std::span<const double> xs);
double min_of(std::span<const double> xs);
double max_of(std::span<const double> xs);

// p-th percentile (0 <= p <= 100) by linear interpolation of the sorted
// sample; requires a non-empty span.
double percentile(std::span<const double> xs, double p);

// Standard normal probability density function.
double normal_pdf(double z);

// Standard normal cumulative distribution function.
double normal_cdf(double z);

// Inverse of the standard normal CDF (Acklam's rational approximation,
// |error| < 1.15e-9); requires 0 < p < 1.
double normal_quantile(double p);

// Fixed-width histogram over [lo, hi); samples outside are clamped into the
// first/last bin. Used to reproduce the Fig. 5 RSSI distributions.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  void add_all(std::span<const double> xs);

  std::size_t bins() const { return counts_.size(); }
  std::size_t count(std::size_t bin) const;
  std::size_t total() const { return total_; }

  // Centre of the given bin.
  double bin_center(std::size_t bin) const;

  // Fraction of all samples in the given bin (0 if the histogram is empty).
  double fraction(std::size_t bin) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace vp
