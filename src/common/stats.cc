#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.h"

namespace dcp {

void RunningStats::Add(double value) {
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
}

double RunningStats::mean() const { return count_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

Histogram::Histogram(double lo, double hi, int num_bins) : lo_(lo), hi_(hi) {
  DCP_CHECK_GT(num_bins, 0);
  DCP_CHECK_LT(lo, hi);
  counts_.assign(static_cast<size_t>(num_bins), 0);
}

void Histogram::Add(double value) {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  int bin = static_cast<int>(std::floor((value - lo_) / width));
  bin = std::clamp(bin, 0, num_bins() - 1);
  ++counts_[static_cast<size_t>(bin)];
  ++total_;
}

double Histogram::bin_lo(int bin) const {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * bin;
}

double Histogram::bin_hi(int bin) const {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * (bin + 1);
}

std::string Histogram::ToAscii(int max_width) const {
  int64_t peak = 1;
  for (int64_t c : counts_) {
    peak = std::max(peak, c);
  }
  std::ostringstream out;
  for (int b = 0; b < num_bins(); ++b) {
    const int bar = static_cast<int>(
        static_cast<double>(bin_count(b)) / static_cast<double>(peak) * max_width);
    out << "[" << static_cast<int64_t>(bin_lo(b)) << ", " << static_cast<int64_t>(bin_hi(b))
        << ") " << std::string(static_cast<size_t>(bar), '#') << " " << bin_count(b) << "\n";
  }
  return out.str();
}

}  // namespace dcp
