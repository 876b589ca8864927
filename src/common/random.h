// Deterministic pseudo-random number generation.
//
// Every stochastic component of the simulator (delay models, data
// generation, the query generator) draws from an explicitly seeded Rng so
// that a (configuration, seed) pair fully determines an execution — a core
// requirement for the reproducibility tests in tests/.

#ifndef DQSCHED_COMMON_RANDOM_H_
#define DQSCHED_COMMON_RANDOM_H_

#include <cstdint>

#include "common/macros.h"

namespace dqsched {

/// xoshiro256** generator seeded via SplitMix64. Fast, high quality, and —
/// unlike std::mt19937 + std::uniform_*_distribution — bit-identical across
/// standard library implementations.
class Rng {
 public:
  explicit Rng(uint64_t seed) { Reseed(seed); }

  /// Reinitializes the state from `seed`.
  void Reseed(uint64_t seed);

  /// Next raw 64-bit value. This and the two draws below are inline:
  /// every delivered tuple's delay draws through them.
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). `bound` must be > 0. Uses rejection
  /// sampling to avoid modulo bias.
  uint64_t Uniform(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformRange(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble() {
    // 53 high bits -> uniform double in [0,1).
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [0, 2*mean): the paper's per-tuple delay model
  /// (Section 5.1.3), which has the given mean.
  double UniformZeroToTwice(double mean) { return NextDouble() * 2.0 * mean; }

  /// Bernoulli draw with probability p of true.
  bool Bernoulli(double p);

  /// Exponential with the given mean (used by the bursty delay model).
  double Exponential(double mean);

  /// Derives an independent child generator; convenient for giving each
  /// wrapper / component its own stream from one top-level seed.
  Rng Fork();

 private:
  static constexpr uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
};

}  // namespace dqsched

#endif  // DQSCHED_COMMON_RANDOM_H_
