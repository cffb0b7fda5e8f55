#ifndef SPOT_OBS_METRICS_H_
#define SPOT_OBS_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace spot {
namespace obs {

/// Monotonic event counter, incremented where its event happens. Plain
/// integer, no atomics: a Counter lives in a Registry owned by exactly one
/// thread (DESIGN.md Section 9) and is only ever read through a published
/// MetricsSnapshot copy. Totals kept elsewhere (the perf totals) are not
/// mirrored here; their owner writes them into that copy.
class Counter {
 public:
  void Inc(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Point-in-time level (resident sessions, open connections, queued
/// bytes). Same single-writer discipline as Counter.
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double d) { value_ += d; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Log2-bucketed latency/size histogram.
///
/// Bucket 0 covers [0, 1]; bucket i covers (2^(i-1), 2^i] for
/// 1 <= i < 63; bucket 63 is the overflow (2^62, inf). Values are
/// unit-agnostic doubles — the serving pipeline records microseconds.
/// Recording is a bucket increment plus moment updates (no allocation,
/// no locks), so a histogram costs O(1) memory no matter how many
/// observations it absorbs — this is what replaces the loadgen's
/// unbounded per-flush latency vector.
///
/// Quantile() returns the nearest-rank order statistic estimated by
/// linear interpolation inside its bucket: the estimate and the true
/// order statistic always share a bucket, so the estimate is within a
/// factor of 2 of the truth (absolute error <= 1 in bucket 0). Merge()
/// is exact on bucket counts, which makes per-connection / per-reactor
/// histograms combinable at scrape time without any loss beyond the
/// bucketing itself.
class Histogram {
 public:
  static constexpr int kNumBuckets = 64;

  /// Bucket index for a value; NaN and negatives land in bucket 0.
  static int BucketIndex(double v);

  /// Inclusive upper bound of bucket i (1, 2, 4, ...); bucket 63 has no
  /// finite bound and reports its lower edge 2^62 here.
  static double BucketUpperBound(int i);

  /// Exclusive lower bound of bucket i (0 for bucket 0).
  static double BucketLowerBound(int i);

  void Record(double v);
  void Merge(const Histogram& other);

  /// Nearest-rank quantile estimate, q clamped to [0,1]. 0 when empty.
  double Quantile(double q) const;

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  std::uint64_t bucket(int i) const {
    return buckets_[static_cast<std::size_t>(i)];
  }

  /// Rebuilds a histogram from serialized parts (wire decode) into `out`;
  /// the count is recomputed from the bucket counts. Returns false, leaving
  /// `out` alone, for parts that Record and Merge never produce: a NaN sum,
  /// min or max, a negative sum or min, a max below the min, or an empty
  /// histogram whose sum, min or max is not +0.
  static bool Restore(const std::uint64_t counts[kNumBuckets], double sum,
                      double min, double max, Histogram* out);

  bool operator==(const Histogram& other) const;
  bool operator!=(const Histogram& other) const { return !(*this == other); }

 private:
  std::uint64_t buckets_[kNumBuckets] = {};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// A deep, self-contained copy of a Registry's contents — the only form
/// in which metrics cross threads. Merge() combines snapshots from
/// several reactors/connections: counters and gauges add, histograms
/// merge bucket-wise.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram> histograms;

  void Merge(const MetricsSnapshot& other);
  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

/// Named metric store local to one thread. Get*() interns the name and
/// returns a stable pointer, so hot paths resolve their instruments once
/// (at setup) and touch only plain memory afterwards — zero atomics,
/// zero locks, zero lookups per event. Cross-thread visibility happens
/// exclusively by publishing Snapshot() copies into a MetricsHub.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  MetricsSnapshot Snapshot() const;

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Mailbox between the single-writer registries and scrapers. One slot
/// per reactor: the owning loop thread overwrites its slot with a fresh
/// snapshot at the end of each loop turn (a few-KB copy, once per turn —
/// off the per-point path), and scrape surfaces (kStats handler, HTTP
/// exporter, --stats-interval dumper) read the slots under the per-slot
/// mutex. Writers never block each other and never contend with the hot
/// path; a scrape sees each reactor at most one loop turn stale.
class MetricsHub {
 public:
  MetricsHub() = default;  // zero slots; reassign to size
  explicit MetricsHub(std::size_t slots);

  void Publish(std::size_t slot, MetricsSnapshot snap);
  MetricsSnapshot Slot(std::size_t slot) const;
  std::vector<MetricsSnapshot> All() const;
  std::size_t size() const { return cells_.size(); }

 private:
  struct Cell {
    mutable std::mutex mu;
    MetricsSnapshot snap;
  };
  std::vector<std::unique_ptr<Cell>> cells_;
};

}  // namespace obs
}  // namespace spot

#endif  // SPOT_OBS_METRICS_H_
