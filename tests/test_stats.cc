#include "common/stats.h"

#include <gtest/gtest.h>

namespace dcp {
namespace {

TEST(RunningStats, KnownSeries) {
  RunningStats stats;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.Add(v);
  }
  EXPECT_EQ(stats.count(), 8);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);  // Sample variance.
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(Histogram, BinsAndClamping) {
  Histogram hist(0.0, 10.0, 5);
  hist.Add(0.5);   // bin 0
  hist.Add(3.0);   // bin 1
  hist.Add(9.99);  // bin 4
  hist.Add(-5.0);  // clamped to bin 0
  hist.Add(42.0);  // clamped to bin 4
  EXPECT_EQ(hist.total(), 5);
  EXPECT_EQ(hist.bin_count(0), 2);
  EXPECT_EQ(hist.bin_count(1), 1);
  EXPECT_EQ(hist.bin_count(2), 0);
  EXPECT_EQ(hist.bin_count(4), 2);
  EXPECT_DOUBLE_EQ(hist.bin_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(hist.bin_hi(1), 4.0);
}

TEST(Histogram, AsciiRenderingHasOneRowPerBin) {
  Histogram hist(0.0, 4.0, 4);
  hist.Add(1.0);
  hist.Add(1.5);
  const std::string art = hist.ToAscii(10);
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 4);
  EXPECT_NE(art.find('#'), std::string::npos);
}

}  // namespace
}  // namespace dcp
