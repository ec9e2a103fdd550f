// Deterministic random number generation.
//
// All randomness in the simulator flows through Rng instances derived from a
// single experiment seed, so every run is exactly reproducible. Substreams
// are derived by name (node id, device, protocol) so adding a consumer does
// not perturb the draws seen by existing consumers — a property the
// case-study experiments rely on to stay stable as the codebase grows.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace sent::util {

/// xoshiro256** PRNG seeded via splitmix64. Not cryptographic; chosen for
/// speed, quality, and a tiny, dependency-free implementation.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Derive an independent substream keyed by a label. Streams with
  /// different labels (or different parent states) are statistically
  /// independent for simulation purposes.
  Rng substream(std::string_view label) const;

  /// Uniform 64-bit value.
  std::uint64_t next();

  /// Uniform in [0, bound) without modulo bias. bound must be > 0.
  std::uint64_t below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Bernoulli draw with probability p of true.
  bool chance(double p);

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean);

  /// Standard normal via Box-Muller (cached pair member unused; recomputes).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  // UniformRandomBitGenerator interface.
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next(); }

 private:
  std::uint64_t s_[4];
};

}  // namespace sent::util
