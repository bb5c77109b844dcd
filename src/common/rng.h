#ifndef HER_COMMON_RNG_H_
#define HER_COMMON_RNG_H_

#include <cstdint>
#include <cmath>
#include <vector>

#include "common/check.h"

namespace her {

/// SplitMix64 step; also used as a cheap stateless mixer.
inline uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Mixes a 64-bit value into a well-distributed 64-bit hash (stateless).
inline uint64_t Mix64(uint64_t x) {
  uint64_t s = x;
  return SplitMix64(s);
}

/// Uniform double in [0, 1) from the top 53 bits of a 64-bit value; the
/// one construction behind Rng::Uniform and every stateless hashed draw.
inline double HashToUniform(uint64_t h) { return (h >> 11) * 0x1.0p-53; }

/// Deterministic xoshiro256** PRNG. All randomness in the library flows
/// through explicitly seeded instances of this class so that datasets,
/// model initialization and experiments are reproducible.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x5eed) { Seed(seed); }

  void Seed(uint64_t seed) {
    uint64_t sm = seed;
    for (auto& word : s_) word = SplitMix64(sm);
  }

  /// Uniform 64-bit value.
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

  /// Uniform integer in [0, bound). Precondition: bound > 0.
  uint64_t Below(uint64_t bound) {
    HER_DCHECK(bound > 0);
    // Lemire's nearly-divisionless method would be faster; modulo bias is
    // negligible for our bounds (<< 2^32) and this keeps the code obvious.
    return Next() % bound;
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t Between(int64_t lo, int64_t hi) {
    HER_DCHECK(lo <= hi);
    return lo + static_cast<int64_t>(Below(static_cast<uint64_t>(hi - lo + 1)));
  }

  /// Uniform double in [0, 1).
  double Uniform() { return HashToUniform(Next()); }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  /// Standard normal via Box-Muller.
  double Normal() {
    double u1 = Uniform();
    while (u1 <= 1e-300) u1 = Uniform();
    const double u2 = Uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

  /// Bernoulli draw with probability p of true.
  bool Chance(double p) { return Uniform() < p; }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      const size_t j = Below(i);
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Picks a uniformly random element. Precondition: v non-empty.
  template <typename T>
  const T& Pick(const std::vector<T>& v) {
    HER_DCHECK(!v.empty());
    return v[Below(v.size())];
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
};

}  // namespace her

#endif  // HER_COMMON_RNG_H_
