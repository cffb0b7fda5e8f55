#include "moga/operators.h"

#include <algorithm>

namespace spot {

Subspace UniformCrossover(const Subspace& a, const Subspace& b, Rng& rng) {
  const std::uint64_t mask = rng.NextUint64();
  return Subspace((a.bits() & mask) | (b.bits() & ~mask));
}

Subspace BitFlipMutation(const Subspace& s, int num_dims, double flip_prob,
                         Rng& rng) {
  std::uint64_t bits = s.bits();
  for (int d = 0; d < num_dims; ++d) {
    if (rng.NextBernoulli(flip_prob)) {
      bits ^= (1ULL << static_cast<unsigned>(d));
    }
  }
  return Subspace(bits);
}

Subspace Repair(Subspace s, int num_dims, int max_dim, Rng& rng) {
  // Clip to the attribute domain.
  const std::uint64_t domain =
      num_dims >= 64 ? ~0ULL : (1ULL << static_cast<unsigned>(num_dims)) - 1ULL;
  s = Subspace(s.bits() & domain);

  while (s.Dimension() > max_dim) {
    const std::vector<int> idx = s.Indices();
    s.Remove(idx[static_cast<std::size_t>(rng.NextUint64(idx.size()))]);
  }
  if (s.IsEmpty()) {
    s.Add(rng.NextInt(0, num_dims - 1));
  }
  return s;
}

Subspace RandomSubspace(int num_dims, int max_dim, Rng& rng) {
  const int dim = rng.NextInt(1, std::max(1, std::min(max_dim, num_dims)));
  Subspace s;
  std::vector<std::size_t> picked = rng.SampleIndices(
      static_cast<std::size_t>(num_dims), static_cast<std::size_t>(dim));
  for (std::size_t i : picked) s.Add(static_cast<int>(i));
  return s;
}

}  // namespace spot
