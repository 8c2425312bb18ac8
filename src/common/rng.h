#ifndef PMJOIN_COMMON_RNG_H_
#define PMJOIN_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace pmjoin {

/// Deterministic pseudo-random number generator (xoshiro256**).
///
/// Every source of randomness in pmjoin — dataset generators, the CC seed
/// pick, shuffles in random-SC — goes through a seeded `Rng` so that every
/// experiment and test is exactly reproducible. The engine is self-contained
/// (no reliance on the standard library's unspecified distributions).
class Rng {
 public:
  /// Seeds the generator. Two `Rng`s built from the same seed produce
  /// identical streams on every platform.
  explicit Rng(uint64_t seed);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform integer in [0, bound). `bound` must be > 0.
  uint64_t Uniform(uint64_t bound);

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  /// Standard normal deviate (Box–Muller, stateless variant).
  double Gaussian();

  /// Gaussian with given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  /// True with probability `p`.
  bool Bernoulli(double p);

  /// Fisher–Yates shuffle of `v`.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(Uniform(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  uint64_t s_[4];
};

}  // namespace pmjoin

#endif  // PMJOIN_COMMON_RNG_H_
