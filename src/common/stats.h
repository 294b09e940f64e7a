// Summary statistics and fixed-width histograms used by datasets, benches and the simulator.
#ifndef DCP_COMMON_STATS_H_
#define DCP_COMMON_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace dcp {

// Streaming summary of a scalar series (Welford for mean/variance, plus min/max/sum).
class RunningStats {
 public:
  void Add(double value);
  int64_t count() const { return count_; }
  double mean() const;
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return sum_; }

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Fixed-bin histogram over [lo, hi); values outside are clamped into the edge bins.
class Histogram {
 public:
  Histogram(double lo, double hi, int num_bins);

  void Add(double value);
  int num_bins() const { return static_cast<int>(counts_.size()); }
  int64_t bin_count(int bin) const { return counts_[static_cast<size_t>(bin)]; }
  double bin_lo(int bin) const;
  double bin_hi(int bin) const;
  int64_t total() const { return total_; }

  // Multi-line ASCII rendering (one row per bin) for bench output.
  std::string ToAscii(int max_width = 60) const;

 private:
  double lo_;
  double hi_;
  std::vector<int64_t> counts_;
  int64_t total_ = 0;
};

}  // namespace dcp

#endif  // DCP_COMMON_STATS_H_
