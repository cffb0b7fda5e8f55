#ifndef SPOT_BASELINES_STORM_H_
#define SPOT_BASELINES_STORM_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "stream/detector_iface.h"

namespace spot {
namespace baselines {

/// Configuration of the distance-based sliding-window detector.
struct StormConfig {
  /// Sliding-window size (points kept).
  std::size_t window = 1000;

  /// Neighborhood radius (full-space Euclidean distance).
  double radius = 0.5;

  /// Minimum neighbors within `radius` for a point to be an inlier.
  std::size_t min_neighbors = 5;
};

/// Exact distance-based outlier detection over a sliding window (the STORM
/// family): a point is an outlier when fewer than `min_neighbors` window
/// points lie within `radius` in the *full* attribute space.
///
/// This is the classic full-space stream detector SPOT is compared against:
/// because distances concentrate as dimensionality grows, projected
/// outliers — anomalous in 2-3 attributes, nominal in the rest — become
/// indistinguishable from inliers, which experiments E3/E4 demonstrate.
class StormDetector : public StreamDetector {
 public:
  explicit StormDetector(const StormConfig& config);

  Detection Process(const DataPoint& point) override;
  std::string name() const override { return "STORM"; }

  std::size_t window_size() const { return window_.size(); }

 private:
  StormConfig config_;
  std::deque<std::vector<double>> window_;
};

}  // namespace baselines
}  // namespace spot

#endif  // SPOT_BASELINES_STORM_H_
