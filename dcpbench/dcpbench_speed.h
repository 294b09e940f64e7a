// Host speed, measured beside the ops so that dcpbench can state its times at one
// reference speed.
//
// The vCPUs this benchmark was sized on (a 4-vCPU Intel Xeon KVM guest) belong to a host
// shared with other tenants, and their speed wanders: the same op costs 5-30% more CPU
// time in one 30-second run than in the next, and a slow spell can last for minutes, so
// longer runs do not average it out. A run therefore also times a fixed kernel of its
// own, on the same vCPU and between ops, and reports every end-to-end time divided by
// Slowdown(): the kernel's mean time in the run over its time on the reference host. The
// kernel has two parts, which slow down differently: a sort of 64Ki integers (a 256 KB
// working set, like a planner pass over its blocks) and a hash map of small vectors
// (allocation and pointer chasing, like decoding a plan). Slowdown() is the geometric
// mean of the two parts' ratios; over two sets of ten runs of each workload it cut the
// spread (interquartile range over median) of the timing metrics from 7-19% to 1-7%.
//
// The kernel is the benchmark's own code: a change to the library cannot speed it up
// and so cannot cancel its own gain.
#ifndef DCPBENCH_DCPBENCH_SPEED_H_
#define DCPBENCH_DCPBENCH_SPEED_H_

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dcpbench_trace.h"

namespace dcp::bench {

// CPU time of the calling thread: the kernel's time leaves out any time the vCPU gave
// to the benchmark's other threads while it ran.
inline int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

class SpeedProbe {
 public:
  SpeedProbe() : keys_(kSortKeys) {}

  // Runs the kernel when kEveryNs has passed since it last ran (at once on the first
  // call). Returns the wall time it took, which the caller's timing must leave out.
  int64_t MaybeRun() {
    const int64_t start = NowNs();
    if (runs_ > 0 && start - last_ns_ < kEveryNs) {
      return 0;
    }
    Run();
    last_ns_ = NowNs();
    return last_ns_ - start;
  }

  // The kernel's time in this run over its reference time: above 1 on a slow host.
  // Times are reported divided by it, rates multiplied.
  double Slowdown() const {
    return std::sqrt((mean_sort_ms() / kSortReferenceMs) * (mean_map_ms() / kMapReferenceMs));
  }

  double mean_sort_ms() const { return sort_ms_ / static_cast<double>(runs_); }
  double mean_map_ms() const { return map_ms_ / static_cast<double>(runs_); }

  // CPU time the kernel has used, for the caller to take out of whole-process CPU time.
  double cpu_seconds() const { return (sort_ms_ + map_ms_) * 1e-3; }
  int64_t runs() const { return runs_; }

 private:
  static constexpr size_t kSortKeys = size_t{1} << 16;
  static constexpr uint64_t kMapKeys = 5000;
  static constexpr int64_t kEveryNs = 250'000'000;  // About 2% of a run's time.
  // Part times on the reference host: the median, over 30 runs (ten of each workload),
  // of a run's mean.
  static constexpr double kSortReferenceMs = 5.25;
  static constexpr double kMapReferenceMs = 0.68;

  void Run() {
    const int64_t t0 = ThreadCpuNs();
    uint64_t x = 0x9e3779b97f4a7c15ULL;  // xorshift64: the same keys on every run.
    for (uint32_t& key : keys_) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      key = static_cast<uint32_t>(x);
    }
    std::sort(keys_.begin(), keys_.end());
    const int64_t t1 = ThreadCpuNs();
    std::unordered_map<uint64_t, std::vector<int>> map;
    for (uint64_t i = 0; i < kMapKeys; ++i) {
      map[i * 0x9e3779b1ULL].assign(i % 64 + 1, static_cast<int>(i));
    }
    for (uint64_t i = 0; i < 2 * kMapKeys; ++i) {
      found_ += map.count(i * 0x9e3779b1ULL);  // Half the probes hit.
    }
    const int64_t t2 = ThreadCpuNs();
    sort_ms_ += static_cast<double>(t1 - t0) * 1e-6;
    map_ms_ += static_cast<double>(t2 - t1) * 1e-6;
    ++runs_;
  }

  std::vector<uint32_t> keys_;
  uint64_t found_ = 0;  // Keeps the lookups observable.
  double sort_ms_ = 0.0;
  double map_ms_ = 0.0;
  int64_t runs_ = 0;
  int64_t last_ns_ = 0;
};

}  // namespace dcp::bench

#endif  // DCPBENCH_DCPBENCH_SPEED_H_
