#ifndef SPOT_MOGA_OPERATORS_H_
#define SPOT_MOGA_OPERATORS_H_

#include "common/rng.h"
#include "subspace/subspace.h"

namespace spot {

/// Genetic operators over subspace bitmasks. All results are repaired to be
/// non-empty and within [1, max_dim] retained attributes drawn from the
/// first `num_dims` positions.

/// Uniform crossover: each attribute bit is taken from either parent with
/// equal probability.
Subspace UniformCrossover(const Subspace& a, const Subspace& b, Rng& rng);

/// Flips each of the `num_dims` bits independently with probability
/// `flip_prob`.
Subspace BitFlipMutation(const Subspace& s, int num_dims, double flip_prob,
                         Rng& rng);

/// Enforces 1 <= Dimension(s) <= max_dim by removing random retained bits
/// (when too large) or adding random absent bits (when empty).
Subspace Repair(Subspace s, int num_dims, int max_dim, Rng& rng);

/// Uniformly random subspace with dimension in [1, max_dim].
Subspace RandomSubspace(int num_dims, int max_dim, Rng& rng);

}  // namespace spot

#endif  // SPOT_MOGA_OPERATORS_H_
