#include "core/reservoir.h"

#include <algorithm>

#include "common/bytes.h"

namespace spot {

// Nothing is sized from `capacity` here: a detector builds its reservoir
// before Learn() validates the config, so the sample grows as points
// arrive.
ReservoirSample::ReservoirSample(std::size_t capacity, std::uint64_t seed)
    : capacity_(capacity), rng_(seed) {}

bool ReservoirSample::Add(const std::vector<double>& values) {
  ++seen_;
  if (items_.size() < capacity_) {
    items_.push_back(values);
    return true;
  }
  const std::uint64_t j = rng_.NextUint64(seen_);
  if (j < capacity_) {
    items_[static_cast<std::size_t>(j)] = values;
    return true;
  }
  return false;
}

void ReservoirSample::Clear() {
  items_.clear();
  seen_ = 0;
}

void ReservoirSample::SaveState(ByteWriter& w) const {
  w.U64(capacity_);
  rng_.SaveState(w);
  w.U64(seen_);
  w.U64(items_.size());
  for (const auto& item : items_) {
    w.U64(item.size());
    for (double v : item) w.F64(v);
  }
}

bool ReservoirSample::LoadState(ByteReader& r,
                                std::size_t expected_dim) {
  if (r.U64() != capacity_) return r.Fail();
  if (!rng_.LoadState(r)) return false;
  seen_ = r.U64();
  const std::uint64_t count = r.U64();
  if (count > capacity_ || count > seen_) return r.Fail();
  items_.clear();
  // Every stored item spends at least its 8-byte length prefix, so the
  // bytes left bound how many a well-formed image can hold.
  items_.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(count, r.remaining() / 8)));
  for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
    const std::uint64_t dim = r.U64();
    if (dim > (1u << 20)) return r.Fail();  // corrupt length prefix
    if (expected_dim != 0 && dim != expected_dim) return r.Fail();
    std::vector<double> item(static_cast<std::size_t>(dim));
    for (double& v : item) v = r.F64();
    items_.push_back(std::move(item));
  }
  return r.ok();
}

}  // namespace spot
