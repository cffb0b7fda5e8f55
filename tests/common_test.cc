// Unit tests of src/common: RNG determinism and distributions, running
// statistics, math helpers, and the byte codec shared by checkpoints and
// wire frames (scalar round trips, exact double bit patterns, sticky
// overrun, and the slicing-by-8 CRC-32 against a bytewise reference).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/timer.h"

namespace spot {
namespace {

// ---------------------------------------------------------------- Rng ----

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextDoubleRangeRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble(-2.5, 3.5);
    EXPECT_GE(x, -2.5);
    EXPECT_LT(x, 3.5);
  }
}

TEST(RngTest, BoundedIntegersCoverRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.NextUint64(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, NextIntInclusiveBounds) {
  Rng rng(13);
  std::set<int> seen;
  for (int i = 0; i < 500; ++i) {
    const int v = rng.NextInt(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.NextGaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.03);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.03);
}

TEST(RngTest, GaussianWithParamsShiftsAndScales) {
  Rng rng(19);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.NextGaussian(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRateApproximatesP) {
  Rng rng(29);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(31);
  Rng b = a.Fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(37);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, SampleIndicesDistinctAndInRange) {
  Rng rng(41);
  const auto sample = rng.SampleIndices(100, 20);
  ASSERT_EQ(sample.size(), 20u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (std::size_t i : sample) EXPECT_LT(i, 100u);
}

TEST(RngTest, SampleIndicesClampsOversizedRequest) {
  Rng rng(43);
  const auto sample = rng.SampleIndices(5, 50);
  EXPECT_EQ(sample.size(), 5u);
}

// ------------------------------------------------------- RunningStats ----

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats s;
  s.Add(4.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 4.5);
  EXPECT_DOUBLE_EQ(s.max(), 4.5);
}

TEST(RunningStatsTest, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic textbook example
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStatsTest, SampleVarianceUsesNMinusOne) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0}) s.Add(x);
  EXPECT_NEAR(s.sample_variance(), 1.0, 1e-12);
  EXPECT_NEAR(s.variance(), 2.0 / 3.0, 1e-12);
}

TEST(RunningStatsTest, MergeMatchesCombinedStream) {
  Rng rng(47);
  RunningStats all;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextGaussian(3.0, 1.5);
    all.Add(x);
    if (i % 2 == 0) {
      left.Add(x);
    } else {
      right.Add(x);
    }
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStatsTest, MergeWithEmptyIsNoop) {
  RunningStats a;
  a.Add(1.0);
  a.Add(2.0);
  RunningStats empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 1.5);

  RunningStats b;
  b.Merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.5);
}

TEST(VectorStatsTest, MeanAndStdDev) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Mean(v), 2.5);
  EXPECT_NEAR(StdDev(v), std::sqrt(1.25), 1e-12);
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_EQ(StdDev({}), 0.0);
}

TEST(VectorStatsTest, QuantileInterpolates) {
  std::vector<double> v = {4.0, 1.0, 3.0, 2.0};  // sorted: 1 2 3 4
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Median(v), 2.5);
}

TEST(VectorStatsTest, QuantileClampsAndHandlesEmpty) {
  EXPECT_EQ(Quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(Quantile({5.0}, -1.0), 5.0);
  EXPECT_DOUBLE_EQ(Quantile({5.0}, 2.0), 5.0);
}

TEST(VectorStatsTest, QuantileSelectsWhatASortWouldRead) {
  // Quantile selects its two order statistics instead of sorting; the
  // reference sorts and interpolates as Quantile did before, and the bit
  // patterns must agree. Every size has ties: its values are drawn from
  // n / 10 distinct ones (one below 20), and the 3-vector ties at the top.
  const auto sorted_quantile = [](std::vector<double> v, double q) {
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] * (1.0 - frac) + v[hi] * frac;
  };
  const auto bits = [](double v) {
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
  };
  Rng rng(17);
  for (const std::size_t n : {1, 2, 3, 20000}) {
    const std::uint64_t distinct = std::max<std::size_t>(1, n / 10);
    std::vector<double> v(n);
    for (double& x : v) {
      x = 0.37 * static_cast<double>(rng.NextUint64(distinct));
    }
    if (n == 3) v = {2.5, 2.5, 1.0};
    for (const double q : {0.0, 0.25, 0.5, 1.0}) {
      EXPECT_EQ(bits(Quantile(v, q)), bits(sorted_quantile(v, q)))
          << "n=" << n << " q=" << q;
    }
  }
}

// ---------------------------------------------------------- math_util ----

TEST(MathUtilTest, Distances) {
  const std::vector<double> a = {0.0, 0.0, 0.0};
  const std::vector<double> b = {1.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(SquaredDistance(a, b), 9.0);
  EXPECT_DOUBLE_EQ(EuclideanDistance(a, b), 3.0);
}

TEST(MathUtilTest, DistanceInDimsRestricts) {
  const std::vector<double> a = {0.0, 0.0, 0.0};
  const std::vector<double> b = {1.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(SquaredDistanceInDims(a, b, {0}), 1.0);
  EXPECT_DOUBLE_EQ(SquaredDistanceInDims(a, b, {1, 2}), 8.0);
  EXPECT_DOUBLE_EQ(SquaredDistanceInDims(a, b, {}), 0.0);
}

TEST(MathUtilTest, BinomialCoefficients) {
  EXPECT_EQ(BinomialCoefficient(5, 0), 1u);
  EXPECT_EQ(BinomialCoefficient(5, 5), 1u);
  EXPECT_EQ(BinomialCoefficient(5, 2), 10u);
  EXPECT_EQ(BinomialCoefficient(40, 3), 9880u);
  EXPECT_EQ(BinomialCoefficient(5, 6), 0u);
  EXPECT_EQ(BinomialCoefficient(5, -1), 0u);
}

TEST(MathUtilTest, BinomialSaturatesOnOverflow) {
  EXPECT_EQ(BinomialCoefficient(64, 32),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(MathUtilTest, LatticeSizeMatchesHandCount) {
  // C(4,1) + C(4,2) = 4 + 6 = 10.
  EXPECT_EQ(LatticeSize(4, 2), 10u);
  // Full lattice over 4 dims: 2^4 - 1.
  EXPECT_EQ(LatticeSize(4, 4), 15u);
  // max_dim beyond n clamps.
  EXPECT_EQ(LatticeSize(4, 10), 15u);
}

TEST(MathUtilTest, ClampWorks) {
  EXPECT_DOUBLE_EQ(Clamp(0.5, 0.0, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(Clamp(-1.0, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(Clamp(2.0, 0.0, 1.0), 1.0);
}

TEST(MathUtilTest, ApproxEqualScalesWithMagnitude) {
  EXPECT_TRUE(ApproxEqual(1.0, 1.0 + 1e-10));
  EXPECT_FALSE(ApproxEqual(1.0, 1.001));
  EXPECT_TRUE(ApproxEqual(1e12, 1e12 + 1.0));
}

TEST(TimerTest, MeasuresNonNegativeElapsed) {
  Timer t;
  double sink = 0.0;
  for (int i = 0; i < 10000; ++i) sink += static_cast<double>(i);
  EXPECT_GT(sink, 0.0);  // keep the loop observable
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
  t.Reset();
  EXPECT_GE(t.ElapsedMillis(), 0.0);
}

// -------------------------------------------------------------- bytes ----

TEST(BytesTest, ScalarRoundTrip) {
  ByteWriter w;
  w.U8(0xAB);
  w.U16(0xBEEF);
  w.U32(0xDEADBEEFu);
  w.U64(0x0123456789ABCDEFULL);
  w.F64(-1234.5678);
  w.Bool(true);
  w.Str("hello\0world");  // literal truncates at NUL — also covers short str
  ByteReader r(w.bytes());
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_EQ(r.U16(), 0xBEEF);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.F64(), -1234.5678);
  EXPECT_TRUE(r.Bool());
  EXPECT_EQ(r.Str(), "hello");
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, DoubleBitPatternsSurviveExactly) {
  const double values[] = {0.0,
                           -0.0,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(),
                           1.0 / 3.0};
  ByteWriter w;
  for (double v : values) w.F64(v);
  ByteReader r(w.bytes());
  for (double v : values) {
    const double got = r.F64();
    std::uint64_t want_bits = 0, got_bits = 0;
    std::memcpy(&want_bits, &v, 8);
    std::memcpy(&got_bits, &got, 8);
    EXPECT_EQ(want_bits, got_bits);
  }
}

TEST(BytesTest, ReaderOverrunIsStickyAndNeutral) {
  ByteWriter w;
  w.U32(7);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.U32(), 7u);
  EXPECT_EQ(r.U64(), 0u);  // overruns: neutral value
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.Str(), "");  // stays failed
  EXPECT_FALSE(r.AtEnd());
}

/// The classic bytewise table CRC-32 (reflected 0xEDB88320): the
/// reference the slicing-by-8 Crc32 must reproduce bit for bit.
std::uint32_t ReferenceCrc32(const unsigned char* p, std::size_t len) {
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(256);
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, SlicingBy8MatchesBytewiseReference) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  std::vector<unsigned char> buf(4096 + 8);
  Rng rng(11);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.NextUint64());
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t len = 0; len <= 4096; ++len) {
      const unsigned char* p = buf.data() + align;
      ASSERT_EQ(Crc32(p, len), ReferenceCrc32(p, len))
          << "alignment " << align << ", length " << len;
    }
  }
}

}  // namespace
}  // namespace spot
