#ifndef SPOT_COMMON_MATH_UTIL_H_
#define SPOT_COMMON_MATH_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace spot {

/// Squared Euclidean distance between equal-length vectors.
double SquaredDistance(const std::vector<double>& a,
                       const std::vector<double>& b);

/// Euclidean distance between equal-length vectors.
double EuclideanDistance(const std::vector<double>& a,
                         const std::vector<double>& b);

/// Squared Euclidean distance restricted to the dimensions listed in `dims`.
double SquaredDistanceInDims(const std::vector<double>& a,
                             const std::vector<double>& b,
                             const std::vector<int>& dims);

/// Binomial coefficient C(n, k) computed with overflow saturation
/// (returns UINT64_MAX on overflow). Used for lattice sizing.
std::uint64_t BinomialCoefficient(int n, int k);

/// Number of subspaces of dimension 1..max_dim over `n` attributes,
/// saturating at UINT64_MAX.
std::uint64_t LatticeSize(int n, int max_dim);

/// x clamped to [lo, hi].
double Clamp(double x, double lo, double hi);

/// True when no element of `v` is NaN or infinite.
bool AllFinite(const std::vector<double>& v);

/// True when |a - b| <= tol, with tol scaled by magnitude for large values.
bool ApproxEqual(double a, double b, double tol = 1e-9);

}  // namespace spot

#endif  // SPOT_COMMON_MATH_UTIL_H_
