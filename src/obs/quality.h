#ifndef SPOT_OBS_QUALITY_H_
#define SPOT_OBS_QUALITY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace spot::obs {

/// Detection-quality tallies for one subspace of a session: how many of
/// the session's points produced a finding in this subspace (`alarms`),
/// out of the points probed since the subspace first alarmed (`points` —
/// the alarm-rate denominator; a subspace tracked but never alarming has
/// no row).
struct SubspaceQuality {
  std::uint64_t subspace_bits = 0;
  std::uint64_t points = 0;
  std::uint64_t alarms = 0;
};

/// Per-session detection-quality snapshot: answers "which subspaces are
/// alarming, how close are verdicts to their thresholds, how big is the
/// grid" for one session. The margin histograms record rd/rd_threshold
/// and irsd/irsd_threshold ratios of outlier findings scaled x1000 (the
/// shared ratio-metric convention, DESIGN.md Section 9), so mass just
/// under 1000 means verdicts are borderline. Counters survive eviction;
/// the grid gauges (tracked_subspaces .. cells_reclaimed) are sampled
/// from the live detector and read zero while the session is evicted.
struct SessionQuality {
  std::string session_id;
  std::uint64_t points = 0;  // points probed since the session opened here
  std::uint64_t alarms = 0;  // points with >= 1 finding
  std::uint64_t tracked_subspaces = 0;
  std::uint64_t slab_slots = 0;   // summary slots allocated (live + free)
  std::uint64_t free_slots = 0;   // slots awaiting recycling
  std::uint64_t compactions = 0;  // sweeps across the projected grids
  std::uint64_t cells_reclaimed = 0;
  Histogram rd_margin;    // rd/rd_threshold x1000, outlier findings
  Histogram irsd_margin;  // irsd/irsd_threshold x1000
  std::vector<SubspaceQuality> subspaces;  // top by alarms, capped
};

}  // namespace spot::obs

#endif  // SPOT_OBS_QUALITY_H_
