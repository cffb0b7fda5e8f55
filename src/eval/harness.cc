#include "eval/harness.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/timer.h"
#include "stream/replay.h"

namespace spot {
namespace eval {

namespace {

/// Pulls up to `limit` points from `source` into the chunk buffers (cleared
/// first). Returns false when the source is exhausted before yielding any.
bool PullChunk(StreamSource& source, std::size_t limit,
               std::vector<LabeledPoint>* truth,
               std::vector<DataPoint>* points) {
  truth->clear();
  points->clear();
  while (points->size() < limit) {
    std::optional<LabeledPoint> p = source.Next();
    if (!p.has_value()) break;
    truth->push_back(std::move(*p));
    // Move the values into the detector-facing chunk instead of copying:
    // the scoring loop only reads the truth labels, never the values.
    points->push_back(std::move(truth->back().point));
  }
  return !points->empty();
}

}  // namespace

RunResult RunDetection(StreamDetector& detector, StreamSource& source,
                       std::size_t count, const RunOptions& options) {
  RunResult result;
  result.detector_name = detector.name();
  const std::size_t batch =
      options.batch_size == 0 ? 1 : options.batch_size;

  std::vector<LabeledPoint> truth;
  std::vector<DataPoint> points;
  truth.reserve(batch);
  points.reserve(batch);

  for (std::size_t fed = 0; fed < options.warmup;) {
    const std::size_t want = std::min(batch, options.warmup - fed);
    if (!PullChunk(source, want, &truth, &points)) break;
    detector.ProcessBatch(points);
    fed += points.size();
  }

  double jaccard_sum = 0.0;
  std::uint64_t jaccard_count = 0;
  Timer timer;
  std::size_t processed = 0;
  while (processed < count) {
    const std::size_t want = std::min(batch, count - processed);
    if (!PullChunk(source, want, &truth, &points)) break;
    const std::vector<Detection> verdicts = detector.ProcessBatch(points);
    processed += points.size();
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
      const Detection& d = verdicts[i];
      const LabeledPoint& p = truth[i];
      result.confusion.Add(d.is_outlier, p.is_outlier);
      if (d.is_outlier && p.is_outlier && !p.outlying_subspace.IsEmpty()) {
        jaccard_sum += BestSubspaceJaccard(p.outlying_subspace,
                                           d.outlying_subspaces);
        ++jaccard_count;
      }
      if (options.collect_scores) {
        result.scores.push_back(d.score);
        result.labels.push_back(p.is_outlier);
      }
    }
  }
  const double elapsed = timer.ElapsedSeconds();
  result.throughput =
      elapsed > 0.0 ? static_cast<double>(processed) / elapsed : 0.0;
  result.mean_subspace_jaccard =
      jaccard_count == 0 ? 0.0 : jaccard_sum / static_cast<double>(jaccard_count);
  if (options.collect_scores) {
    result.auc = RocAuc(result.scores, result.labels);
  }
  return result;
}

std::vector<RunResult> CompareDetectors(
    const std::vector<StreamDetector*>& detectors,
    const std::vector<LabeledPoint>& points, const RunOptions& options) {
  std::vector<RunResult> results;
  results.reserve(detectors.size());
  for (StreamDetector* detector : detectors) {
    stream::ReplaySource replay(points);
    results.push_back(
        RunDetection(*detector, replay, points.size(), options));
  }
  return results;
}

}  // namespace eval
}  // namespace spot
