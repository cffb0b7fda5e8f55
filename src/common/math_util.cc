#include "common/math_util.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace spot {

double SquaredDistance(const std::vector<double>& a,
                       const std::vector<double>& b) {
  double s = 0.0;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

double EuclideanDistance(const std::vector<double>& a,
                         const std::vector<double>& b) {
  return std::sqrt(SquaredDistance(a, b));
}

double SquaredDistanceInDims(const std::vector<double>& a,
                             const std::vector<double>& b,
                             const std::vector<int>& dims) {
  double s = 0.0;
  for (int dim : dims) {
    const double d = a[static_cast<std::size_t>(dim)] -
                     b[static_cast<std::size_t>(dim)];
    s += d * d;
  }
  return s;
}

std::uint64_t BinomialCoefficient(int n, int k) {
  if (k < 0 || k > n) return 0;
  if (k > n - k) k = n - k;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t result = 1;
  for (int i = 1; i <= k; ++i) {
    const std::uint64_t numerator = static_cast<std::uint64_t>(n - k + i);
    if (result > kMax / numerator) return kMax;
    result = result * numerator / static_cast<std::uint64_t>(i);
  }
  return result;
}

std::uint64_t LatticeSize(int n, int max_dim) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t total = 0;
  for (int k = 1; k <= std::min(n, max_dim); ++k) {
    const std::uint64_t c = BinomialCoefficient(n, k);
    if (total > kMax - c) return kMax;
    total += c;
  }
  return total;
}

double Clamp(double x, double lo, double hi) {
  return std::max(lo, std::min(hi, x));
}

bool AllFinite(const std::vector<double>& v) {
  return std::all_of(v.begin(), v.end(),
                     [](double x) { return std::isfinite(x); });
}

bool ApproxEqual(double a, double b, double tol) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= tol * scale;
}

}  // namespace spot
