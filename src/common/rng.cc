#include "common/rng.h"

#include <cmath>

#include "common/bytes.h"

namespace spot {

namespace {

constexpr double kPi = 3.14159265358979323846;

std::uint64_t SplitMix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
  // All-zero state is invalid for xoshiro; SplitMix64 cannot produce four
  // zeros from any seed, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::NextUint64() {
  const std::uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::NextUint64(std::uint64_t bound) {
  // Lemire-style rejection to remove modulo bias.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    std::uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

int Rng::NextInt(int lo, int hi) {
  return lo + static_cast<int>(
                  NextUint64(static_cast<std::uint64_t>(hi - lo) + 1));
}

double Rng::NextDouble() {
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::NextDouble(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextGaussian() {
  if (has_spare_gaussian_) {
    has_spare_gaussian_ = false;
    return spare_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  const double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * kPi * u2;
  spare_gaussian_ = r * std::sin(theta);
  has_spare_gaussian_ = true;
  return r * std::cos(theta);
}

double Rng::NextGaussian(double mean, double stddev) {
  return mean + stddev * NextGaussian();
}

bool Rng::NextBernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

Rng Rng::Fork() { return Rng(NextUint64()); }

void Rng::SaveState(ByteWriter& w) const {
  for (std::uint64_t s : s_) w.U64(s);
  w.Bool(has_spare_gaussian_);
  w.F64(spare_gaussian_);
}

bool Rng::LoadState(ByteReader& r) {
  for (auto& s : s_) s = r.U64();
  has_spare_gaussian_ = r.Bool();
  spare_gaussian_ = r.F64();
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) return r.Fail();
  return r.ok();
}

std::vector<std::size_t> Rng::SampleIndices(std::size_t n, std::size_t k) {
  if (k > n) k = n;
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  // Partial Fisher-Yates: the first k slots become the sample.
  for (std::size_t i = 0; i < k; ++i) {
    std::size_t j = i + static_cast<std::size_t>(NextUint64(n - i));
    std::swap(all[i], all[j]);
  }
  all.resize(k);
  return all;
}

}  // namespace spot
