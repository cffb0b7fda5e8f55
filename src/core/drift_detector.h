#ifndef SPOT_CORE_DRIFT_DETECTOR_H_
#define SPOT_CORE_DRIFT_DETECTOR_H_

#include <cstdint>

namespace spot {

class ByteReader;
class ByteWriter;

/// Page-Hinkley change detector over a real-valued signal.
///
/// SPOT feeds it the per-point outlier indicator (0/1): a sustained rise of
/// the outlier rate above its running mean by more than `delta` accumulates
/// in the PH statistic; when the statistic exceeds `lambda`, drift is
/// declared (the detection stage then relearns CS from the reservoir).
class PageHinkley {
 public:
  /// `delta`: magnitude tolerance; `lambda`: alarm threshold.
  PageHinkley(double delta, double lambda);

  /// Feeds one observation; returns true when drift is declared. The
  /// detector resets itself after declaring drift.
  bool Add(double x);

  /// Running mean of the signal since the last reset.
  double mean() const { return count_ == 0 ? 0.0 : mean_; }

  /// Current PH statistic (m_t - min m_t).
  double statistic() const { return m_ - m_min_; }

  std::uint64_t count() const { return count_; }
  std::uint64_t drifts() const { return drifts_; }

  /// Forgets all state (fresh concept).
  void Reset();

  /// Checkpointing: parameters and the accumulated PH statistic both
  /// round-trip, so a restored detector alarms at exactly the same tick.
  void SaveState(ByteWriter& w) const;
  bool LoadState(ByteReader& r);

 private:
  double delta_;
  double lambda_;
  double mean_ = 0.0;
  double m_ = 0.0;
  double m_min_ = 0.0;
  std::uint64_t count_ = 0;
  std::uint64_t drifts_ = 0;
};

}  // namespace spot

#endif  // SPOT_CORE_DRIFT_DETECTOR_H_
