#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace vp {

double RunningStats::mean() const {
  VP_REQUIRE(n_ > 0);
  return mean_;
}

double RunningStats::variance() const {
  VP_REQUIRE(n_ > 1);
  // Welford's m2 can drift a few ulps below zero on (near-)constant
  // input; clamping keeps sqrt() callers (stddev, the Eq. 7 Z-score)
  // defined instead of NaN.
  return std::max(m2_, 0.0) / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::population_variance() const {
  VP_REQUIRE(n_ > 0);
  return std::max(m2_, 0.0) / static_cast<double>(n_);
}

double RunningStats::min() const {
  VP_REQUIRE(n_ > 0);
  return min_;
}

double RunningStats::max() const {
  VP_REQUIRE(n_ > 0);
  return max_;
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n = static_cast<double>(n_);
  const auto m = static_cast<double>(other.n_);
  const double total = n + m;
  m2_ += other.m2_ + delta * delta * n * m / total;
  mean_ += delta * m / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double mean(std::span<const double> xs) {
  RunningStats s;
  for (double x : xs) s.add(x);
  return s.mean();
}

double variance(std::span<const double> xs) {
  RunningStats s;
  for (double x : xs) s.add(x);
  return s.variance();
}

double population_variance(std::span<const double> xs) {
  RunningStats s;
  for (double x : xs) s.add(x);
  return s.population_variance();
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double min_of(std::span<const double> xs) {
  VP_REQUIRE(!xs.empty());
  return *std::min_element(xs.begin(), xs.end());
}

double max_of(std::span<const double> xs) {
  VP_REQUIRE(!xs.empty());
  return *std::max_element(xs.begin(), xs.end());
}

double percentile(std::span<const double> xs, double p) {
  VP_REQUIRE(!xs.empty());
  VP_REQUIRE(p >= 0.0 && p <= 100.0);
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double normal_pdf(double z) {
  static const double kInvSqrt2Pi = 0.3989422804014327;
  return kInvSqrt2Pi * std::exp(-0.5 * z * z);
}

double normal_cdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

double normal_quantile(double p) {
  VP_REQUIRE(p > 0.0 && p < 1.0);
  // Acklam's algorithm.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double p_low = 0.02425;
  const double p_high = 1.0 - p_low;
  double q, r;
  if (p < p_low) {
    q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p <= p_high) {
    q = p - 0.5;
    r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
            a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  }
  q = std::sqrt(-2.0 * std::log(1.0 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
           c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {
  VP_REQUIRE(hi > lo);
  VP_REQUIRE(bins > 0);
}

void Histogram::add(double x) {
  double idx = (x - lo_) / width_;
  auto bin = idx <= 0.0 ? 0
             : idx >= static_cast<double>(counts_.size())
                 ? counts_.size() - 1
                 : static_cast<std::size_t>(idx);
  ++counts_[bin];
  ++total_;
}

void Histogram::add_all(std::span<const double> xs) {
  for (double x : xs) add(x);
}

std::size_t Histogram::count(std::size_t bin) const {
  VP_REQUIRE(bin < counts_.size());
  return counts_[bin];
}

double Histogram::bin_center(std::size_t bin) const {
  VP_REQUIRE(bin < counts_.size());
  return lo_ + (static_cast<double>(bin) + 0.5) * width_;
}

double Histogram::fraction(std::size_t bin) const {
  VP_REQUIRE(bin < counts_.size());
  if (total_ == 0) return 0.0;
  return static_cast<double>(counts_[bin]) / static_cast<double>(total_);
}

}  // namespace vp
