// Deterministic pseudo-random number generation for simulation.
//
// Every experiment in this repository is seeded; the simulator, overlay,
// workload and protocol shuffles all draw from instances of Rng so that a run
// is reproducible bit-for-bit given the same seed.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace lo::util {

// SplitMix64: used to expand a 64-bit seed into the xoshiro256** state.
// Reference: Sebastiano Vigna, public-domain splitmix64.c.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// xoshiro256** 1.0 — fast, high-quality, deterministic PRNG.
// Satisfies the C++ UniformRandomBitGenerator concept so it can be used with
// <random> distributions if ever needed, although the helpers below are
// preferred because their results are platform-independent.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0xdeadbeefcafef00dULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& s : state_) s = splitmix64(sm);
  }

  // Derives an independent sub-stream from (seed, stream): the stream id is
  // folded through two SplitMix64 rounds before the xoshiro state expansion,
  // so stream k and stream k+1 share no prefix structure. This is how the
  // simulator gives every node its own generator — draws on one stream are
  // independent of how many draws other streams made, so a node's draws
  // depend only on its own history, never on how nodes' events interleave.
  static Rng for_stream(std::uint64_t seed, std::uint64_t stream) noexcept {
    std::uint64_t sm = stream;
    std::uint64_t mixed = seed ^ splitmix64(sm);
    mixed ^= splitmix64(sm) << 1;
    return Rng(mixed);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<std::uint64_t>::max();
  }

  std::uint64_t operator()() noexcept { return next(); }

  std::uint64_t next() noexcept {
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

  // Uniform integer in [0, bound). bound == 0 returns 0.
  // Uses Lemire's nearly-divisionless method with rejection for exactness.
  std::uint64_t next_below(std::uint64_t bound) noexcept {
    if (bound == 0) return 0;
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = next();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  // Uniform double in [0, 1).
  double next_double() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  // Exponentially distributed value with the given mean (inverse-CDF method).
  double next_exponential(double mean) noexcept;

  // Standard normal via Box–Muller (deterministic, no cached spare).
  double next_normal() noexcept;

  // Lognormal with parameters of the underlying normal distribution.
  double next_lognormal(double mu, double sigma) noexcept;

  // True with probability p (clamped to [0,1]).
  bool next_bool(double p) noexcept { return next_double() < p; }

  // In-place Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  // Sample k distinct indices from [0, n) (k > n returns all of [0,n) shuffled).
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

}  // namespace lo::util
