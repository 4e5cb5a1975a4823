#pragma once

#include <array>
#include <cstdint>

namespace sim {

/// One SplitMix64 step: advances `x` by the golden-ratio increment and
/// returns its finalized mix. Seeds Rng, and derives campaign trial
/// seeds (campaign::derive_trial_seed).
inline std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Deterministic xoshiro256** PRNG: reproducible across platforms, unlike
/// std::mt19937 + distribution combinations.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) {
    std::uint64_t x = seed;
    for (auto& s : state_) s = splitmix64(x);
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) {
    return lo + next() % (hi - lo + 1);
  }

  /// Bernoulli draw with probability p (clamped to [0,1]).
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return static_cast<double>(next() >> 11) * 0x1.0p-53 < p;
  }

  /// Raw stream state, for snapshot/restore: a restored Rng continues
  /// the exact sequence the captured one would have produced.
  std::array<std::uint64_t, 4> state() const {
    return {state_[0], state_[1], state_[2], state_[3]};
  }
  void set_state(const std::array<std::uint64_t, 4>& s) {
    for (int i = 0; i < 4; ++i) state_[i] = s[i];
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4]{};
};

}  // namespace sim
