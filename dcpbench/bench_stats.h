// Sample statistics for benchmark rows: nearest-rank percentiles and the sample count
// behind them. A percentile is only worth reporting when enough samples lie beyond it
// (ten or more for a tail percentile), so every summary carries the count of samples
// strictly above its p99.
#ifndef DCPBENCH_BENCH_STATS_H_
#define DCPBENCH_BENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace dcp::bench {

// Nearest-rank percentile of an ascending-sorted sample: the smallest value with at
// least p% of the samples at or below it (p in [0, 100]). 0 for an empty sample.
inline double NearestRank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  const double n = static_cast<double>(sorted.size());
  const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

struct SampleSummary {
  int64_t samples = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  int64_t beyond_p99 = 0;  // Samples strictly greater than p99.
};

inline SampleSummary Summarize(std::vector<double> values) {
  SampleSummary s;
  s.samples = static_cast<int64_t>(values.size());
  if (values.empty()) {
    return s;
  }
  std::sort(values.begin(), values.end());
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  s.mean = sum / static_cast<double>(values.size());
  s.p50 = NearestRank(values, 50);
  s.p99 = NearestRank(values, 99);
  s.beyond_p99 = static_cast<int64_t>(
      values.end() - std::upper_bound(values.begin(), values.end(), s.p99));
  return s;
}

}  // namespace dcp::bench

#endif  // DCPBENCH_BENCH_STATS_H_
