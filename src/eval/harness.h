#ifndef SPOT_EVAL_HARNESS_H_
#define SPOT_EVAL_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "eval/metrics.h"
#include "stream/data_point.h"
#include "stream/detector_iface.h"

namespace spot {
namespace eval {

/// Options of a detection run.
struct RunOptions {
  /// Points fed before metrics start accumulating (lets windows and
  /// summaries fill; verdicts during warmup are discarded).
  std::size_t warmup = 0;

  /// Collect per-point scores/labels for ROC analysis (costs memory).
  bool collect_scores = false;

  /// Points per StreamDetector::ProcessBatch call. Verdicts are identical
  /// for every batch size (batching amortizes overhead, it does not change
  /// semantics); 0 or 1 drives the per-point Process path.
  std::size_t batch_size = 64;
};

/// Outcome of driving one detector over one labeled stream.
struct RunResult {
  std::string detector_name;
  Confusion confusion;

  /// Points per second over the measured (post-warmup) phase.
  double throughput = 0.0;

  /// Mean best-Jaccard between each detected true outlier's planted
  /// subspace and the detector's reported subspaces (0 for detectors that
  /// report none; only true positives with a planted subspace count).
  double mean_subspace_jaccard = 0.0;

  /// Per-point scores / truth labels (when collect_scores was set).
  std::vector<double> scores;
  std::vector<bool> labels;

  /// ROC AUC over the collected scores (0.5 when not collected).
  double auc = 0.5;
};

/// Feeds `count` points of `source` through `detector`, scoring verdicts
/// against the stream's ground truth.
RunResult RunDetection(StreamDetector& detector, StreamSource& source,
                       std::size_t count, const RunOptions& options = {});

/// Feeds the same pre-materialized stream through several detectors
/// (each sees identical data).
std::vector<RunResult> CompareDetectors(
    const std::vector<StreamDetector*>& detectors,
    const std::vector<LabeledPoint>& points, const RunOptions& options = {});

}  // namespace eval
}  // namespace spot

#endif  // SPOT_EVAL_HARNESS_H_
