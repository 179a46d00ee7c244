// Deterministic pseudo-random number generation for workload generators and
// property tests. All CAESAR generators are seeded so experiments reproduce
// bit-identically across runs.

#ifndef CAESAR_COMMON_RNG_H_
#define CAESAR_COMMON_RNG_H_

#include <cstdint>
#include <random>

namespace caesar {

// Thin wrapper around std::mt19937_64 with convenience draws.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  // Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t Uniform(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  // Uniform double in [lo, hi).
  double UniformReal(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  // True with probability p (clamped to [0, 1]).
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return std::bernoulli_distribution(p)(engine_);
  }

  // Poisson draw with the given mean; a mean <= 0 draws 0 (the standard
  // distribution requires a positive mean).
  int64_t Poisson(double mean) {
    if (mean <= 0.0) return 0;
    return std::poisson_distribution<int64_t>(mean)(engine_);
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace caesar

#endif  // CAESAR_COMMON_RNG_H_
