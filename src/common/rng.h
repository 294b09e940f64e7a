// Deterministic random number generation. All randomized components (datasets, partitioner
// tie-breaking, trainers) take an explicit Rng so every experiment is reproducible from a seed.
#ifndef DCP_COMMON_RNG_H_
#define DCP_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dcp {

// The SplitMix64 step: adds the golden-ratio increment, then applies the finalizer. Used
// as a stateless 64-bit mix (hashes, jitter, ids); a stream advances its own state by
// 0x9E3779B97F4A7C15 per draw.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// SplitMix64-seeded xoshiro256** generator. Small, fast, and identical across platforms
// (unlike std::mt19937_64 distributions, whose results vary across standard libraries).
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  uint64_t NextU64();
  // Uniform in [0, bound). bound must be > 0.
  uint64_t NextBounded(uint64_t bound);
  // Uniform double in [0, 1).
  double NextDouble();
  // Uniform double in [lo, hi).
  double NextUniform(double lo, double hi);
  // Standard normal via Box-Muller.
  double NextGaussian();
  // Log-normal with the given parameters of the underlying normal.
  double NextLogNormal(double mu, double sigma);
  // Uniform int in [lo, hi] inclusive.
  int64_t NextInt(int64_t lo, int64_t hi);

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& values) {
    for (size_t i = values.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextBounded(i));
      std::swap(values[i - 1], values[j]);
    }
  }

  // Derives an independent child generator (for parallel workers).
  Rng Fork();

 private:
  uint64_t state_[4];
  bool has_gaussian_ = false;
  double spare_gaussian_ = 0.0;
};

}  // namespace dcp

#endif  // DCP_COMMON_RNG_H_
