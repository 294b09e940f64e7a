#include "common/rng.h"

#include <cmath>

#include "common/check.h"

namespace dcp {
namespace {

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t s = seed;
  for (auto& word : state_) {
    word = SplitMix64(s);
    s += 0x9E3779B97F4A7C15ull;
  }
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  DCP_CHECK_GT(bound, 0u);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0 - bound) % bound;
  while (true) {
    uint64_t r = NextU64();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

double Rng::NextDouble() { return static_cast<double>(NextU64() >> 11) * 0x1.0p-53; }

double Rng::NextUniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

double Rng::NextGaussian() {
  if (has_gaussian_) {
    has_gaussian_ = false;
    return spare_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  const double u2 = NextDouble();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  spare_gaussian_ = radius * std::sin(theta);
  has_gaussian_ = true;
  return radius * std::cos(theta);
}

double Rng::NextLogNormal(double mu, double sigma) {
  return std::exp(mu + sigma * NextGaussian());
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  DCP_CHECK_LE(lo, hi);
  return lo + static_cast<int64_t>(NextBounded(static_cast<uint64_t>(hi - lo) + 1));
}

Rng Rng::Fork() { return Rng(NextU64()); }

}  // namespace dcp
