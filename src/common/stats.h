#ifndef SPOT_COMMON_STATS_H_
#define SPOT_COMMON_STATS_H_

#include <cstddef>
#include <vector>

namespace spot {

/// Numerically stable running mean/variance accumulator (Welford).
class RunningStats {
 public:
  /// Adds one observation.
  void Add(double x);

  /// Merges another accumulator into this one (Chan's parallel update).
  void Merge(const RunningStats& other);

  std::size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }

  /// Population variance (divides by n). Zero for fewer than 2 samples.
  double variance() const;

  /// Sample variance (divides by n-1). Zero for fewer than 2 samples.
  double sample_variance() const;

  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Mean of `v`; 0 for an empty vector.
double Mean(const std::vector<double>& v);

/// Population standard deviation of `v`; 0 for fewer than 2 elements.
double StdDev(const std::vector<double>& v);

/// Linear-interpolation quantile, q in [0,1]. `v` need not be sorted: the
/// two order statistics it interpolates are selected in linear time, not
/// sorted for, and give the same double a sort would. Returns 0 for an
/// empty vector.
double Quantile(std::vector<double> v, double q);

/// Several quantiles from one sorting pass — answers element-for-element
/// what Quantile(v, qs[i]) would, without re-copying and re-sorting the
/// sample set per q. Returns all zeros for an empty vector.
std::vector<double> Quantiles(std::vector<double> v,
                              const std::vector<double>& qs);

/// Median convenience wrapper over Quantile(v, 0.5).
double Median(std::vector<double> v);

}  // namespace spot

#endif  // SPOT_COMMON_STATS_H_
