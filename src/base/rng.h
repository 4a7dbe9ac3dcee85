// Deterministic seeded PRNG (xoshiro256**) used everywhere randomness is
// needed: workload synthesis, ASLR placement, attack probing, DieHard-style
// allocation. Determinism makes every test and benchmark bit-reproducible.
#ifndef MEMSENTRY_SRC_BASE_RNG_H_
#define MEMSENTRY_SRC_BASE_RNG_H_

#include <cassert>
#include <cstddef>
#include <cstdint>

namespace memsentry {

class Rng {
 public:
  explicit Rng(uint64_t seed) {
    // splitmix64 seeding to fill the xoshiro state from a single word.
    uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9e3779b97f4a7c15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
  }

  uint64_t Next() {
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

  // Uniform in [0, bound). bound must be > 0.
  uint64_t Below(uint64_t bound) {
    assert(bound > 0);
    // Rejection sampling to avoid modulo bias.
    const uint64_t threshold = -bound % bound;
    for (;;) {
      const uint64_t r = Next();
      if (r >= threshold) {
        return r % bound;
      }
    }
  }

  // Uniform in [lo, hi] inclusive.
  uint64_t Range(uint64_t lo, uint64_t hi) {
    assert(lo <= hi);
    return lo + Below(hi - lo + 1);
  }

  // Uniform double in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  // Bernoulli with probability p.
  bool Chance(double p) { return NextDouble() < p; }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
};

}  // namespace memsentry

#endif  // MEMSENTRY_SRC_BASE_RNG_H_
