#ifndef SPOT_CORE_RESERVOIR_H_
#define SPOT_CORE_RESERVOIR_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace spot {

class ByteReader;
class ByteWriter;

/// Uniform reservoir sample (Vitter's algorithm R) of the stream seen so
/// far. The detection stage keeps one as its stand-in for "recent data":
/// self-evolution scoring, OS growth and drift relearning all evaluate
/// against it, because the raw stream cannot be stored.
class ReservoirSample {
 public:
  explicit ReservoirSample(std::size_t capacity, std::uint64_t seed = 99);

  /// Offers one point to the reservoir. Returns true when the point was
  /// stored (always during warm-up, with probability capacity/seen after)
  /// — callers observing reservoir churn branch on this instead of
  /// re-deriving the sampler's decision.
  bool Add(const std::vector<double>& values);

  /// Current sample contents (size <= capacity).
  const std::vector<std::vector<double>>& Items() const { return items_; }

  std::size_t size() const { return items_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t seen() const { return seen_; }

  void Clear();

  /// Checkpointing: items, the seen-counter and the sampler's RNG all
  /// round-trip, so the restored reservoir accepts/evicts exactly as the
  /// uninterrupted one would. The stored capacity must match this
  /// instance's (it comes from the same config the caller restored), and
  /// with `expected_dim` != 0 every restored item must have exactly that
  /// many attributes (the consumers — evolution, OS growth, relearning —
  /// index items by the stream's dimensionality).
  void SaveState(ByteWriter& w) const;
  bool LoadState(ByteReader& r, std::size_t expected_dim = 0);

 private:
  std::size_t capacity_;
  Rng rng_;
  std::vector<std::vector<double>> items_;
  std::uint64_t seen_ = 0;
};

}  // namespace spot

#endif  // SPOT_CORE_RESERVOIR_H_
