#ifndef NWC_COMMON_RNG_H_
#define NWC_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace nwc {

/// Deterministic pseudo-random number generator.
///
/// The generator is a SplitMix64-seeded xoshiro256** — fast, statistically
/// strong for simulation workloads, and fully reproducible across platforms
/// (unlike std::mt19937 paired with std:: distributions, whose outputs are
/// implementation-defined). All dataset generators and query samplers in this
/// repository derive their randomness from this class so that experiment runs
/// are bit-identical given the same seed.
class Rng {
 public:
  /// Seeds the generator; the same seed yields the same stream everywhere.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Returns the next 64 uniformly distributed bits.
  uint64_t NextUint64();

  /// Returns a uniform integer in [0, bound). `bound` must be positive.
  /// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
  uint64_t NextUint64(uint64_t bound);

  /// Returns a uniform double in [0, 1).
  double NextDouble();

  /// Returns a uniform double in [lo, hi).
  double NextDouble(double lo, double hi);

  /// Returns a standard-normal sample (Marsaglia polar method).
  double NextGaussian();

  /// Returns a normal sample with the given mean and standard deviation.
  double NextGaussian(double mean, double stddev);

  /// Returns true with probability `p` (clamped to [0, 1]).
  bool NextBernoulli(double p);

  /// Fisher-Yates shuffles `items` in place.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      const size_t j = static_cast<size_t>(NextUint64(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

 private:
  uint64_t state_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace nwc

#endif  // NWC_COMMON_RNG_H_
