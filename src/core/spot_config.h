#ifndef SPOT_CORE_SPOT_CONFIG_H_
#define SPOT_CORE_SPOT_CONFIG_H_

#include <cstdint>
#include <string>

#include "learning/self_evolution.h"
#include "learning/supervised.h"
#include "learning/unsupervised.h"

namespace spot {

/// Complete configuration of a SpotDetector. Defaults follow DESIGN.md
/// Section 5 and are sensible for unit-hypercube data with a few dozen
/// attributes.
struct SpotConfig {
  // --- (omega, epsilon) time model -----------------------------------
  /// Sliding-window size, in points. The effective (decayed) window mass
  /// is roughly omega / 10 for epsilon = 0.01; detection contrast needs
  /// that mass to be large relative to the populated cells per subspace.
  std::uint64_t omega = 2000;

  /// Residual out-of-window weight bound.
  double epsilon = 0.01;

  /// Master switch for the (omega, epsilon) time model. When false the
  /// detector keeps landmark (never-decaying) summaries — only useful for
  /// ablations (E13) and strictly stationary streams.
  bool use_decay = true;

  // --- Equi-width partition ------------------------------------------
  /// Intervals per attribute. Coarse grids are deliberate: each cluster
  /// should span about one cell so that cluster fringes stay heavy and
  /// genuinely outlying cells stay empty.
  int cells_per_dim = 5;

  /// Margin added around the training data's range when fitting the
  /// partition (fraction of each attribute's range).
  double partition_margin = 0.05;

  /// Optional explicit attribute domain, applied to every attribute. When
  /// domain_lo < domain_hi the partition uses these bounds; otherwise it is
  /// fitted to the training batch with partition_margin headroom. Explicit
  /// bounds are strongly preferred when the domain is known: fitted bounds
  /// clamp genuinely out-of-range stream values into boundary cells that
  /// may already hold training mass, hiding exactly the outliers SPOT is
  /// meant to find.
  double domain_lo = 0.0;
  double domain_hi = 0.0;

  // --- SST ------------------------------------------------------------
  /// FS lattice depth (MaxDimension in the paper).
  int fs_max_dimension = 2;

  /// Hard cap on |FS|; when the lattice is larger, FS is a uniform sample
  /// of that size (0 = unlimited, up to kMaxSubspaces).
  std::size_t fs_cap = 1024;

  /// CS / OS capacity bounds.
  std::size_t cs_capacity = 32;
  std::size_t os_capacity = 64;

  // --- Outlier-ness thresholds ----------------------------------------
  /// A point is a projected outlier in subspace s when its cell's
  /// RD <= rd_threshold and IRSD <= irsd_threshold. The defaults flag cells
  /// holding under a quarter of the average cell mass whose content is
  /// either near-empty or widely scattered.
  double rd_threshold = 0.1;
  double irsd_threshold = 0.5;

  /// Fringe suppression: a sparse cell is vetoed when a neighboring cell
  /// (Chebyshev distance 1 in the projected grid) holds at least
  /// `fringe_factor * max(1, cell_count)` decayed weight — such cells are
  /// the statistical tail of an adjacent dense cluster, not projected
  /// outliers. Set to 0 to disable (the E12 ablation measures the effect).
  double fringe_factor = 8.0;

  // --- Learning stage --------------------------------------------------
  UnsupervisedConfig unsupervised;
  SupervisedConfig supervised;

  // --- Detection stage dynamics ----------------------------------------
  /// Points between CS self-evolution rounds (0 disables evolution).
  std::uint64_t evolution_period = 2000;
  SelfEvolutionConfig evolution;

  /// Reservoir-sample capacity (recent stream points used by evolution,
  /// OS growth and drift relearning).
  std::size_t reservoir_capacity = 512;

  /// Run MOGA-driven OS growth on every k-th detected outlier
  /// (0 disables OS growth; 1 = every detected outlier).
  std::uint64_t os_update_every = 8;

  // --- Concept-drift detection -----------------------------------------
  /// Enables the Page-Hinkley drift test on the outlier-rate signal.
  bool drift_detection = true;

  /// Page-Hinkley tolerance (delta) and alarm threshold (lambda) on the
  /// outlier-rate signal. Sized for a 0/1 indicator: lambda large enough
  /// that stationary Bernoulli noise never accumulates an alarm, small
  /// enough that an outlier-rate jump of ~0.3 alarms within ~50 points.
  double drift_delta = 0.01;
  double drift_lambda = 15.0;

  /// Relearn CS from the reservoir when drift fires.
  bool relearn_on_drift = true;

  // --- Grid maintenance -------------------------------------------------
  /// Cells below this decayed weight are reclaimed at compaction.
  double prune_threshold = 1e-3;

  /// Arrivals between compaction sweeps (0 disables).
  std::uint64_t compaction_period = 4096;

  // --- Top-k outlier retention -------------------------------------------
  /// Worst-outlier entries retained for kQueryTopK / QueryTopK() and
  /// feedback-by-id, ranked by (omega, epsilon)-decayed score
  /// (0 disables retention; queries then always return empty).
  std::size_t topk_capacity = 64;

  // --- Batch sharding ----------------------------------------------------
  /// Splits the tracked SST subspaces into this many shard jobs per
  /// ProcessBatch tile (1 = the engine runs inline on the calling thread,
  /// the default). The jobs run on the process's one compute pool, whose
  /// size follows the CPUs, not this count. Verdicts are bit-identical at
  /// every shard count — sharding is a throughput knob, not a semantic
  /// one. Single-point Process() runs as a batch of one at the same shard
  /// count. Validate() refuses counts above kMaxShards.
  std::size_t num_shards = 1;

  /// Largest num_shards Validate() accepts. The engine keeps one stage
  /// entry per shard and a tile of 64 points per shard, so an unbounded
  /// count read from a checkpoint or a wire request could exhaust memory.
  static constexpr std::size_t kMaxShards = 256;

  /// Largest reservoir_capacity and topk_capacity Validate() accepts. Each
  /// bounds a buffer of retained points, so an unbounded one read from a
  /// wire request or a checkpoint would let one session's memory grow with
  /// its stream.
  static constexpr std::size_t kMaxRetainedPoints = std::size_t{1} << 20;

  /// Largest fs_cap and evolution.offspring Validate() accepts, and the
  /// largest FS lattice Learn() enumerates when fs_cap is 0 (the lattice's
  /// size follows the stream width, which only Learn sees). Each sizes an
  /// array of subspaces.
  static constexpr std::size_t kMaxSubspaces = std::size_t{1} << 16;

  /// Largest MOGA population_size and generations Validate() accepts for
  /// either search, and the largest outlying_degree.num_runs. These bound
  /// running time, not memory: Learn, a feedback round and a drift relearn
  /// run their searches on the calling thread (a reactor's loop thread, for
  /// the wire), and one NSGA-II generation costs O(population^2). With all
  /// three at their caps, Learn on 400 x 8 training rows with
  /// eval::FastTestConfig's other values took 8.4 s on a 4-vCPU x86-64
  /// container, against 0.01 s at that config's own budget.
  static constexpr int kMaxMogaPopulation = 128;
  static constexpr int kMaxMogaGenerations = 1000;
  static constexpr int kMaxOutlyingRuns = 100;

  /// Largest unsupervised.top_outlying_points Validate() accepts, and the
  /// most labels (point ids plus examples) SpotDetector::ApplyFeedback
  /// takes in one round. Learn runs one search per top outlying point and
  /// a feedback round one per label, all on the calling thread, so these
  /// bound how many searches one request starts. At both caps and the
  /// MOGA budget caps, Learn on 400 x 8 training rows with
  /// eval::FastTestConfig's other values took 36 s on a 4-vCPU x86-64
  /// container and a feedback round after 2000 more points 34 s.
  static constexpr std::size_t kMaxTopOutlyingPoints = 32;
  static constexpr std::size_t kMaxFeedbackLabels = 32;

  // --- Reproducibility ---------------------------------------------------
  std::uint64_t seed = 1234;

  /// Returns an empty string when the configuration is usable, otherwise a
  /// description of the first problem found. Every double field must be
  /// finite.
  std::string Validate() const;
};

}  // namespace spot

#endif  // SPOT_CORE_SPOT_CONFIG_H_
