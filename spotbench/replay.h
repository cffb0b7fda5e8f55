#ifndef SPOTBENCH_REPLAY_H_
#define SPOTBENCH_REPLAY_H_

// In-process replay of a wire run: the byte-exact reference every
// end-to-end run is checked against and, when traced, the source of the
// per-layer numbers. It pushes the same seeded batches, with the same
// boundaries and the same scheduled rounds, through the public functions
// of each layer in turn and times each call from the outside.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workload.h"

namespace spotbench {

/// What the wire run saw for one session, in send order: the CRC-32 of
/// net::VerdictBytes for each batch, and one digest per scheduled-round
/// step (TopKBytes CRC of each query answer, then 1/0 for an applied or
/// refused feedback round).
struct SessionLog {
  std::vector<std::uint32_t> batch_crcs;
  std::vector<std::uint32_t> op_digests;
};

/// One stage of a batch's trip, as the traced replay times it.
struct LayerTime {
  const char* layer;
  double total_us = 0.0;
};

struct ReplayResult {
  std::uint64_t batches_checked = 0;
  std::uint64_t batch_mismatches = 0;
  /// Rounds the replay made; the caller compares this with the rounds the
  /// wire logged, since only rounds present in both are compared here.
  std::uint64_t ops_checked = 0;
  std::uint64_t op_mismatches = 0;
  std::string first_mismatch;

  void Mismatch(bool batch, const std::string& what) {
    ++(batch ? batch_mismatches : op_mismatches);
    if (first_mismatch.empty()) first_mismatch = what;
  }

  // --- traced runs only ----------------------------------------------------
  std::uint64_t points = 0;
  std::uint64_t batches = 0;
  /// The stages on the blocking path of one batch, in pipeline order.
  std::vector<LayerTime> layers;
  /// Core ProcessBatch time inside the service stage (for the table).
  double core_us_total = 0.0;
  /// Per-batch sum of the stage times, one entry per batch.
  std::vector<double> batch_sums_us;
  /// Per-layer metrics by name (see kLayerMetrics in main.cc).
  std::map<std::string, double> metrics;
};

/// Replays `logs` (one per session of `w`) and compares digests, one
/// reactor's sessions after another so no two timed calls overlap. Scratch
/// files (checkpoints) go under `work_dir`.
ReplayResult Replay(const Workload& w, std::uint64_t seed,
                    const std::vector<SessionLog>& logs, bool trace,
                    const std::string& work_dir);

}  // namespace spotbench

#endif  // SPOTBENCH_REPLAY_H_
