// Deterministic, fast PRNG for workload generation.
//
// Benches and tests need reproducible packet streams and trie shapes; we use
// xoshiro256** (public-domain algorithm by Blackman & Vigna) rather than
// std::mt19937 because it is much faster per draw — generator cost must stay
// negligible next to the ~100-cycle effects we measure.
#ifndef LINSYS_SRC_UTIL_RNG_H_
#define LINSYS_SRC_UTIL_RNG_H_

#include <cstdint>

namespace util {

// splitmix64's finalizer: a bijective 64-bit mixer in which every input bit
// affects every output bit.
inline std::uint64_t Mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { Seed(seed); }

  // splitmix64 seeding: any seed (including 0) yields a well-mixed state.
  void Seed(std::uint64_t seed) {
    for (auto& word : state_) {
      seed += 0x9e3779b97f4a7c15ULL;
      word = Mix64(seed);
    }
  }

  std::uint64_t Next() {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, bound). Lemire's multiply-shift reduction (slightly biased
  // for huge bounds; fine for workload synthesis).
  std::uint64_t Below(std::uint64_t bound) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(Next()) * bound) >> 64);
  }

  std::uint32_t NextU32() { return static_cast<std::uint32_t>(Next() >> 32); }

  // Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  bool Chance(double p) { return NextDouble() < p; }

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

}  // namespace util

#endif  // LINSYS_SRC_UTIL_RNG_H_
