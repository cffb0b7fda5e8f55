#ifndef SPOT_COMMON_RNG_H_
#define SPOT_COMMON_RNG_H_

#include <cstdint>
#include <vector>

namespace spot {

class ByteReader;
class ByteWriter;

/// Deterministic, seedable pseudo-random number generator (xoshiro256++).
///
/// All stochastic components of the library (stream generators, MOGA,
/// clustering orders, reservoir sampling) draw from an explicitly passed Rng
/// so every experiment is reproducible from a single seed. The generator is
/// cheap to copy; distinct components should use `Fork()` to obtain
/// statistically independent sub-streams.
class Rng {
 public:
  /// Constructs a generator from a 64-bit seed via SplitMix64 expansion.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit value.
  std::uint64_t NextUint64();

  /// Uniform integer in [0, bound). `bound` must be > 0. Uses rejection
  /// sampling, so the result is unbiased.
  std::uint64_t NextUint64(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int NextInt(int lo, int hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double NextDouble(double lo, double hi);

  /// Standard normal deviate (Box-Muller, cached spare).
  double NextGaussian();

  /// Normal deviate with the given mean and standard deviation.
  double NextGaussian(double mean, double stddev);

  /// True with probability `p` (clamped to [0,1]).
  bool NextBernoulli(double p);

  /// Returns an independent generator derived from this one's stream.
  Rng Fork();

  /// Fisher-Yates shuffle of `v` in place.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(NextUint64(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Samples `k` distinct indices from [0, n) in uniformly random order.
  std::vector<std::size_t> SampleIndices(std::size_t n, std::size_t k);

  /// Checkpointing: the full generator state (xoshiro words + the cached
  /// Box-Muller spare) round-trips, so a restored stream continues with
  /// exactly the draws the uninterrupted one would have made.
  void SaveState(ByteWriter& w) const;
  bool LoadState(ByteReader& r);

 private:
  std::uint64_t s_[4];
  double spare_gaussian_ = 0.0;
  bool has_spare_gaussian_ = false;
};

}  // namespace spot

#endif  // SPOT_COMMON_RNG_H_
