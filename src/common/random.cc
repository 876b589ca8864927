#include "common/random.h"

#include <cmath>

namespace dqsched {
namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

void Rng::Reseed(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

uint64_t Rng::Uniform(uint64_t bound) {
  DQS_CHECK(bound > 0);
  // Rejection sampling over the largest multiple of bound.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    const uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::UniformRange(int64_t lo, int64_t hi) {
  DQS_CHECK(lo <= hi);
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<int64_t>(Next());  // full 64-bit range
  return lo + static_cast<int64_t>(Uniform(span));
}

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

double Rng::Exponential(double mean) {
  // Inverse transform; guard against log(0).
  double u = NextDouble();
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

Rng Rng::Fork() { return Rng(Next()); }

}  // namespace dqsched
