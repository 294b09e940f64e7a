#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

namespace dcp {
namespace {

// Reference values of the splitmix64 generator: its first output for seed 0, and its
// first two outputs for seed 1234567 (a stream advances by the golden increment).
TEST(SplitMix64, MatchesReferenceOutputs) {
  EXPECT_EQ(SplitMix64(0), 0xE220A8397B1DCDAFull);
  uint64_t state = 1234567;
  EXPECT_EQ(SplitMix64(state), 6457827717110365317ull);
  state += 0x9E3779B97F4A7C15ull;
  EXPECT_EQ(SplitMix64(state), 3203168211198807973ull);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.NextU64() == b.NextU64() ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, GaussianMomentsApproximatelyStandard) {
  Rng rng(11);
  double sum = 0.0;
  double sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextGaussian();
    sum += v;
    sum2 += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, LogNormalMedianNearExpMu) {
  Rng rng(13);
  std::vector<double> samples;
  for (int i = 0; i < 10001; ++i) {
    samples.push_back(rng.NextLogNormal(std::log(100.0), 0.5));
  }
  std::nth_element(samples.begin(), samples.begin() + 5000, samples.end());
  EXPECT_NEAR(samples[5000], 100.0, 5.0);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(17);
  std::vector<int> values(50);
  for (int i = 0; i < 50; ++i) {
    values[static_cast<size_t>(i)] = i;
  }
  rng.Shuffle(values);
  std::set<int> unique(values.begin(), values.end());
  EXPECT_EQ(unique.size(), 50u);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(21);
  Rng child = a.Fork();
  // Child differs from parent continuation.
  EXPECT_NE(child.NextU64(), a.NextU64());
}

TEST(Rng, NextIntInclusiveBounds) {
  Rng rng(23);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 500; ++i) {
    const int64_t v = rng.NextInt(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

}  // namespace
}  // namespace dcp
