#include "common/stats.h"

#include <algorithm>
#include <cmath>

namespace spot {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double RunningStats::sample_variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double StdDev(const std::vector<double>& v) {
  RunningStats rs;
  for (double x : v) rs.Add(x);
  return rs.stddev();
}

namespace {

/// Where quantile q of n sorted values lies: between the order statistics
/// `lo` and `hi` (hi = lo + 1 unless lo is the last), `frac` of the way.
struct QuantilePosition {
  std::size_t lo;
  std::size_t hi;
  double frac;
};

QuantilePosition PositionOf(std::size_t n, double q) {
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(n - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  return {lo, std::min(lo + 1, n - 1), pos - static_cast<double>(lo)};
}

double Interpolate(double lower, double upper, double frac) {
  return lower * (1.0 - frac) + upper * frac;
}

/// Interpolated quantile of an already-sorted non-empty vector.
double SortedQuantile(const std::vector<double>& v, double q) {
  const QuantilePosition p = PositionOf(v.size(), q);
  return Interpolate(v[p.lo], v[p.hi], p.frac);
}

}  // namespace

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  // Select the two order statistics a sort would put at lo and hi: the
  // lower in place, then the upper as the least of what lies above it.
  const QuantilePosition p = PositionOf(v.size(), q);
  const auto lower = v.begin() + static_cast<std::ptrdiff_t>(p.lo);
  std::nth_element(v.begin(), lower, v.end());
  const double upper =
      p.hi == p.lo ? *lower : *std::min_element(lower + 1, v.end());
  return Interpolate(*lower, upper, p.frac);
}

std::vector<double> Quantiles(std::vector<double> v,
                              const std::vector<double>& qs) {
  std::vector<double> out(qs.size(), 0.0);
  if (v.empty()) return out;
  std::sort(v.begin(), v.end());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    out[i] = SortedQuantile(v, qs[i]);
  }
  return out;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

}  // namespace spot
