#ifndef SPOT_BASELINES_INCREMENTAL_LOF_H_
#define SPOT_BASELINES_INCREMENTAL_LOF_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "stream/detector_iface.h"

namespace spot {
namespace baselines {

/// Configuration of the incremental LOF detector.
struct IncrementalLofConfig {
  /// Sliding-window size.
  std::size_t window = 500;

  /// Neighborhood size k.
  std::size_t k = 10;

  /// LOF value above which a point is declared an outlier.
  double lof_threshold = 1.8;
};

/// Density-based stream outlier detection: LOF computed over a sliding
/// window (windowed variant of incremental LOF). Full-space kNN distances
/// are used, so like every full-space method its contrast collapses in
/// high dimensions — the behaviour experiment E4 quantifies.
///
/// Complexity per point is O(window * k) distance scans; exact (no index),
/// suitable for the window sizes the experiments use.
class IncrementalLofDetector : public StreamDetector {
 public:
  explicit IncrementalLofDetector(const IncrementalLofConfig& config);

  Detection Process(const DataPoint& point) override;
  std::string name() const override { return "iLOF"; }

  /// LOF of the most recent point (for tests).
  double last_lof() const { return last_lof_; }

 private:
  /// Distances from `values` to every window member, k-smallest first.
  std::vector<std::pair<double, std::size_t>> KnnOf(
      const std::vector<double>& values, std::size_t exclude) const;

  double KDistance(std::size_t index) const;
  double LocalReachabilityDensity(std::size_t index) const;

  IncrementalLofConfig config_;
  std::deque<std::vector<double>> window_;
  double last_lof_ = 0.0;
};

}  // namespace baselines
}  // namespace spot

#endif  // SPOT_BASELINES_INCREMENTAL_LOF_H_
