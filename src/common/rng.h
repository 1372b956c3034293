// Deterministic PRNG for test fixtures and workload generators.
//
// xoshiro-style splitmix64: fast, seedable, identical across platforms, so
// every test and bench fills grids with reproducible data.
#pragma once

#include <cstdint>

namespace s35 {

class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next_u64() { return mix(state_ += kGolden); }

  // The value the n-th next_u64() call (0-based) of SplitMix64(seed)
  // returns. Counter-based access to the same stream: a fill can compute
  // every element from its index, with no state carried between them.
  static std::uint64_t at(std::uint64_t seed, std::uint64_t n) {
    return mix(seed + (n + 1) * kGolden);
  }

  // The splitmix64 finalizer.
  static std::uint64_t mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  // Maps a 64-bit draw to [0, 1).
  static double unit(std::uint64_t u) { return static_cast<double>(u >> 11) * 0x1.0p-53; }

  // Uniform in [0, 1).
  double next_double() { return unit(next_u64()); }

  // Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * next_double(); }

  // Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return next_u64() % n; }

 private:
  static constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ull;

  std::uint64_t state_;
};

}  // namespace s35
