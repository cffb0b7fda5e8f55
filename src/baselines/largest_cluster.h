#ifndef SPOT_BASELINES_LARGEST_CLUSTER_H_
#define SPOT_BASELINES_LARGEST_CLUSTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "stream/detector_iface.h"

namespace spot {
namespace baselines {

/// Configuration of the micro-cluster ("largest cluster") detector.
struct LargestClusterConfig {
  /// Maximum number of maintained micro-clusters.
  std::size_t max_clusters = 50;

  /// A point joins its nearest cluster when within this full-space radius.
  double radius = 0.4;

  /// Clusters holding less than this fraction of the (decayed) total weight
  /// are anomalous: members of large clusters are normal traffic.
  double small_cluster_fraction = 0.02;

  /// Exponential decay applied to cluster weights per arrival (stream
  /// recency, mirroring SPOT's decaying summaries).
  double decay = 0.9995;
};

/// Cluster-based full-space stream anomaly detection ("largest cluster"
/// strategy): maintain decaying micro-clusters; points that fall in (or
/// found) small clusters are anomalies, points absorbed by the dominant
/// clusters are normal. This is the clustering-family comparator from the
/// paper's related work, again operating on full-space distances only.
class LargestClusterDetector : public StreamDetector {
 public:
  explicit LargestClusterDetector(const LargestClusterConfig& config);

  Detection Process(const DataPoint& point) override;
  std::string name() const override { return "LargestCluster"; }

  std::size_t num_clusters() const { return clusters_.size(); }

 private:
  struct MicroCluster {
    std::vector<double> centroid;
    double weight = 0.0;
  };

  LargestClusterConfig config_;
  std::vector<MicroCluster> clusters_;
  double total_weight_ = 0.0;
};

}  // namespace baselines
}  // namespace spot

#endif  // SPOT_BASELINES_LARGEST_CLUSTER_H_
