#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace spot {
namespace obs {

int Histogram::BucketIndex(double v) {
  if (!(v > 1.0)) return 0;  // NaN, negatives and [0,1] share bucket 0
  int e = 0;
  const double m = std::frexp(v, &e);  // v = m * 2^e, m in [0.5, 1)
  const int idx = (m == 0.5) ? e - 1 : e;
  return idx >= kNumBuckets ? kNumBuckets - 1 : idx;
}

double Histogram::BucketUpperBound(int i) {
  if (i >= kNumBuckets - 1) return std::ldexp(1.0, kNumBuckets - 2);
  return std::ldexp(1.0, i);
}

double Histogram::BucketLowerBound(int i) {
  if (i <= 0) return 0.0;
  return std::ldexp(1.0, i - 1);
}

void Histogram::Record(double v) {
  if (std::isnan(v)) v = 0.0;
  if (v < 0.0) v = 0.0;
  ++buckets_[static_cast<std::size_t>(BucketIndex(v))];
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  for (int i = 0; i < kNumBuckets; ++i) {
    buckets_[static_cast<std::size_t>(i)] +=
        other.buckets_[static_cast<std::size_t>(i)];
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // 0-based nearest-rank index of the requested order statistic.
  std::uint64_t rank = 0;
  if (q > 0.0) {
    const double r = std::ceil(q * static_cast<double>(count_)) - 1.0;
    rank = r <= 0.0 ? 0 : static_cast<std::uint64_t>(r);
    rank = std::min(rank, count_ - 1);
  }
  std::uint64_t cum = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    const std::uint64_t n = buckets_[static_cast<std::size_t>(i)];
    if (n == 0) continue;
    if (rank < cum + n) {
      const double lo = BucketLowerBound(i);
      double hi = (i == kNumBuckets - 1) ? std::max(max_, lo)
                                         : BucketUpperBound(i);
      // Interpolate at the order statistic's position inside the bucket,
      // assuming uniform spread; clamp to the observed range so
      // single-value histograms answer exactly.
      const double p = (static_cast<double>(rank - cum) + 0.5) /
                       static_cast<double>(n);
      return std::clamp(lo + p * (hi - lo), min_, max_);
    }
    cum += n;
  }
  return max_;  // unreachable when counts are consistent
}

bool Histogram::Restore(const std::uint64_t counts[kNumBuckets], double sum,
                        double min, double max, Histogram* out) {
  Histogram h;
  for (int i = 0; i < kNumBuckets; ++i) {
    h.buckets_[static_cast<std::size_t>(i)] =
        counts[static_cast<std::size_t>(i)];
    h.count_ += counts[static_cast<std::size_t>(i)];
  }
  if (h.count_ == 0) {
    // An empty histogram's moments are +0.
    if (sum != 0.0 || min != 0.0 || max != 0.0 || std::signbit(sum) ||
        std::signbit(min) || std::signbit(max)) {
      return false;
    }
  } else if (std::isnan(sum) || std::isnan(min) || std::isnan(max) ||
             sum < 0.0 || min < 0.0 || max < min) {
    return false;  // Record clamps NaN and negative samples to 0
  }
  h.sum_ = sum;
  h.min_ = min;
  h.max_ = max;
  *out = h;
  return true;
}

bool Histogram::operator==(const Histogram& other) const {
  return count_ == other.count_ && sum_ == other.sum_ &&
         min_ == other.min_ && max_ == other.max_ &&
         std::memcmp(buckets_, other.buckets_, sizeof(buckets_)) == 0;
}

void MetricsSnapshot::Merge(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.counters) counters[name] += value;
  for (const auto& [name, value] : other.gauges) gauges[name] += value;
  for (const auto& [name, hist] : other.histograms) {
    histograms[name].Merge(hist);
  }
}

Counter* Registry::GetCounter(const std::string& name) {
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* Registry::GetGauge(const std::string& name) {
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* Registry::GetHistogram(const std::string& name) {
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

MetricsSnapshot Registry::Snapshot() const {
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = gauge->value();
  }
  for (const auto& [name, hist] : histograms_) {
    snap.histograms[name] = *hist;
  }
  return snap;
}

MetricsHub::MetricsHub(std::size_t slots) {
  cells_.reserve(slots);
  for (std::size_t i = 0; i < slots; ++i) {
    cells_.push_back(std::make_unique<Cell>());
  }
}

void MetricsHub::Publish(std::size_t slot, MetricsSnapshot snap) {
  if (slot >= cells_.size()) return;
  Cell& cell = *cells_[slot];
  std::lock_guard<std::mutex> lock(cell.mu);
  cell.snap = std::move(snap);
}

MetricsSnapshot MetricsHub::Slot(std::size_t slot) const {
  if (slot >= cells_.size()) return MetricsSnapshot();
  Cell& cell = *cells_[slot];
  std::lock_guard<std::mutex> lock(cell.mu);
  return cell.snap;
}

std::vector<MetricsSnapshot> MetricsHub::All() const {
  std::vector<MetricsSnapshot> out;
  out.reserve(cells_.size());
  for (const auto& cell : cells_) {
    std::lock_guard<std::mutex> lock(cell->mu);
    out.push_back(cell->snap);
  }
  return out;
}

}  // namespace obs
}  // namespace spot
