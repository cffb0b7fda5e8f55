#ifndef SPOT_STREAM_DETECTOR_IFACE_H_
#define SPOT_STREAM_DETECTOR_IFACE_H_

#include <string>
#include <vector>

#include "stream/data_point.h"
#include "subspace/subspace.h"

namespace spot {

/// Verdict of a stream detector on one point.
struct Detection {
  bool is_outlier = false;

  /// Outlying subspaces, when the detector can attribute them (SPOT can;
  /// full-space baselines leave this empty).
  std::vector<Subspace> outlying_subspaces;

  /// Detector-specific anomaly score (higher = more anomalous); used by the
  /// ROC sweep. Detectors that are purely binary may report 0/1.
  double score = 0.0;
};

/// Common interface of all one-pass stream outlier detectors (SPOT and the
/// full-space baselines), so the evaluation harness and the comparative
/// experiments can drive them uniformly.
class StreamDetector {
 public:
  virtual ~StreamDetector() = default;

  /// Ingests one point and returns the verdict for it.
  virtual Detection Process(const DataPoint& point) = 0;

  /// Ingests a batch of points and returns one verdict per point, in order.
  /// Semantically identical to calling Process() point by point — batching
  /// exists so detectors can amortize per-point overheads (SPOT bins each
  /// point's cell coordinates once for all subspaces and shards the
  /// per-subspace work). The default simply loops Process(), so every
  /// detector is batch-drivable.
  virtual std::vector<Detection> ProcessBatch(
      const std::vector<DataPoint>& points) {
    std::vector<Detection> verdicts;
    verdicts.reserve(points.size());
    for (const DataPoint& p : points) verdicts.push_back(Process(p));
    return verdicts;
  }

  virtual std::string name() const = 0;
};

}  // namespace spot

#endif  // SPOT_STREAM_DETECTOR_IFACE_H_
