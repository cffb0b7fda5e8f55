#ifndef SPOT_CORE_TOPK_OUTLIERS_H_
#define SPOT_CORE_TOPK_OUTLIERS_H_

#include <cstdint>
#include <vector>

#include "core/finding.h"
#include "grid/decay.h"

namespace spot {

class ByteReader;
class ByteWriter;

/// One retained outlier: the point's identity, arrival tick, raw anomaly
/// score, the raw attribute values (kept server-side so feedback can label
/// a point by id without the client re-sending it) and the outlying
/// subspaces with their PCS evidence at detection time.
struct TopKEntry {
  std::uint64_t point_id = 0;
  std::uint64_t tick = 0;
  /// Raw anomaly score in [0, 1] as assigned at detection time.
  double score = 0.0;
  /// score * alpha^(now - tick): filled by Query() for the query's
  /// reference tick, never stored.
  double decayed_score = 0.0;
  std::vector<double> values;
  std::vector<SubspaceFinding> findings;
};

/// Bounded, decay-aware retention of the worst outliers in the current
/// (omega, epsilon) window (ROADMAP item: streaming top-k outlier queries).
///
/// Entries are kept sorted by *decayed* score under the same exponential
/// (omega, epsilon) model the data synapses use. Exponential decay makes
/// that order time-invariant: for entries a and b evaluated at any tick t,
///
///     score_a * alpha^(t - tick_a)  vs  score_b * alpha^(t - tick_b)
///
/// differ only by the common factor alpha^(t - ref), so the comparison is
/// done once at ref = max(tick_a, tick_b) (keeping both exponents
/// non-negative) and never needs revisiting as time advances. Ties break
/// to the older tick, then the smaller point id — a total order, so the
/// retained set and its order are a pure function of the offered entries.
///
/// Offer() is called only for detected outliers; it lazily expires entries
/// older than omega (when decay is on), inserts in rank order and evicts
/// past capacity. Query() is const — it filters expired entries and stamps
/// decayed scores without mutating state, so *when* a client queries can
/// never perturb subsequent results (the determinism argument of DESIGN.md
/// Section 11 depends on this).
///
/// The structure is part of the detector's checkpointed state: entries
/// round-trip bit-exactly, so top-k answers are identical across a
/// save → load boundary.
class TopKOutliers {
 public:
  /// `capacity` bounds the retained set (0 disables retention entirely);
  /// `model` is the session's (omega, epsilon) decay model — pass
  /// DecayModel::None() to keep entries un-decayed and un-windowed.
  TopKOutliers(std::size_t capacity, const DecayModel& model);

  /// Offers one detected outlier. Values and findings are moved in.
  void Offer(TopKEntry entry);

  /// Up to k entries, best first, as of tick `now_tick`: expired entries
  /// (age > omega under decay) are filtered out and each returned entry's
  /// decayed_score is stamped for `now_tick`. Non-mutating.
  std::vector<TopKEntry> Query(std::size_t k, std::uint64_t now_tick) const;

  /// The retained values of the entry with this point id, or nullptr when
  /// the id is not (or no longer) retained. Feedback-by-id resolves the
  /// labeled point's attribute vector through this.
  const std::vector<double>* Values(std::uint64_t point_id) const;

  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }

  void Clear() { entries_.clear(); }

  /// Checkpointing of the retained entries (capacity and decay model come
  /// from the owner's config and are not serialized). Entries are written
  /// in rank order, so the byte stream is canonical for a given state.
  void SaveState(ByteWriter& w) const;
  bool LoadState(ByteReader& r);

 private:
  /// True when a outranks b (strictly better decayed score at the shared
  /// reference tick; ties to older tick, then smaller id).
  bool RanksBefore(const TopKEntry& a, const TopKEntry& b) const;
  bool Expired(const TopKEntry& e, std::uint64_t now_tick) const;

  std::size_t capacity_;
  DecayModel model_;
  /// Window expiry only applies under real decay; DecayModel::None()
  /// (alpha = 1) retains entries indefinitely.
  bool windowed_;
  /// Sorted best-first under RanksBefore (time-invariant, see above).
  std::vector<TopKEntry> entries_;
};

}  // namespace spot

#endif  // SPOT_CORE_TOPK_OUTLIERS_H_
