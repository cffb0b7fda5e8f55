#ifndef SPOTBENCH_WORKLOAD_H_
#define SPOTBENCH_WORKLOAD_H_

// The benchmark's workloads: server shape, session configs, seeded data and
// the scheduled feedback/query rounds. Both the wire client and the
// in-process replay derive everything from here, so a workload is defined
// in exactly one place.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/spot_config.h"
#include "stream/data_point.h"
#include "stream/synthetic.h"

namespace spotbench {

struct Workload {
  std::string name;

  // --- spot_serverd shape ------------------------------------------------
  std::size_t reactors = 1;
  std::size_t shards = 1;
  std::size_t max_resident = 64;  // the daemon's default
  bool checkpoint_dir = false;    // sessions evict to a directory on disk

  // --- client shape -------------------------------------------------------
  std::size_t connections = 1;
  /// Sessions in total; session s lives on connection s % connections, and
  /// each connection sends its batches round-robin over its sessions.
  std::size_t sessions = 1;
  std::size_t batch = 200;  // points per ingest batch, each flushed
  /// Traffic before the measured window opens (caches fill, SST churn
  /// settles).
  double warmup_s = 1.0;

  // --- data and detector ---------------------------------------------------
  int dims = 8;
  std::size_t training = 400;
  double outlier_prob = 0.02;
  spot::SpotConfig config;

  // --- scheduled v3 rounds (cadence in batches of one session; 0 = off) ---
  std::size_t feedback_every = 0;
  std::size_t query_every = 0;
  std::uint32_t feedback_k = 4;
  std::uint32_t query_k = 8;

  /// Reactor a connection lands on: spot_serverd --no-reuseport deals
  /// connection k to reactor k mod N, so placement is deterministic.
  std::size_t ReactorOfConnection(std::size_t c) const { return c % reactors; }
  std::size_t ConnectionOfSession(std::size_t s) const {
    return s % connections;
  }
  bool FeedbackDue(std::uint64_t batch_index) const {
    return feedback_every != 0 && (batch_index + 1) % feedback_every == 0;
  }
  bool QueryDue(std::uint64_t batch_index) const {
    return query_every != 0 && (batch_index + 1) % query_every == 0;
  }
};

/// The workload named `name`; false when unknown.
bool FindWorkload(const std::string& name, Workload* out);

/// Names accepted by FindWorkload, for usage messages.
std::vector<std::string> WorkloadNames();

std::string SessionId(std::size_t s);

/// Session s's offline training batch (drawn from its concept, no planted
/// outliers; the same for every seed).
std::vector<std::vector<double>> TrainingData(const Workload& w,
                                              std::size_t s);

/// Session s's evaluation stream for input seed `seed`, produced batch by
/// batch so neither the client nor the replay holds more than one batch per
/// session.
class SessionStream {
 public:
  SessionStream(const Workload& w, std::uint64_t seed, std::size_t s);

  std::vector<spot::DataPoint> NextBatch();

 private:
  std::size_t batch_;
  spot::stream::GaussianStream gen_;
};

}  // namespace spotbench

#endif  // SPOTBENCH_WORKLOAD_H_
