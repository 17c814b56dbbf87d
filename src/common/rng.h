// Deterministic pseudo-random number generation.
//
// Every stochastic component of IMCF (trace synthesis, random initialization
// of the Energy Planner, k-opt neighbour selection, MRT variations) draws
// from an explicitly-seeded generator so that runs are exactly reproducible.
// The generator is xoshiro256++ seeded via splitmix64 — small, fast, and
// high-quality; <random> engines are avoided because their distributions are
// not portable across standard libraries.
//
// The integer paths (Next / UniformInt) are defined inline: the planners
// draw several bounded integers per move, and out-of-line calls would both
// cost the call and hide the loop-invariant `limit` computation (one 64-bit
// division) from the optimizer. MixHash is inline for the same reason: the
// fault path calls it several times per delivered command. The algorithms
// are fixed — any change to the draw sequence or a hash breaks every seeded
// witness in the repo.

#ifndef IMCF_COMMON_RNG_H_
#define IMCF_COMMON_RNG_H_

#include <cstdint>
#include <string_view>

namespace imcf {

/// xoshiro256++ generator with splitmix64 seeding. Copyable; copies evolve
/// independently, which makes forking sub-streams trivial.
class Rng {
 public:
  /// Seeds the generator; equal seeds give equal streams.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value.
  uint64_t Next() {
    const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    const uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
    if (range == 0) return static_cast<int64_t>(Next());  // full 64-bit range
    // Rejection sampling to avoid modulo bias.
    const uint64_t limit = UINT64_MAX - UINT64_MAX % range;
    uint64_t v;
    do {
      v = Next();
    } while (v >= limit);
    return lo + static_cast<int64_t>(v % range);
  }

  /// Uniform double in [0, 1).
  double UniformDouble() {
    // 53 high-quality bits -> [0, 1).
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi) {
    return lo + (hi - lo) * UniformDouble();
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return UniformDouble() < p;
  }

  /// Standard normal deviate (Box–Muller; consumes two uniforms).
  double Gaussian();

  /// Normal deviate with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  /// Returns a new generator seeded from this stream, for independent
  /// sub-streams (one per dataset unit, per repetition, ...).
  Rng Fork();

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
};

/// Stateless 64-bit mix of the input (splitmix64 finalizer). Used to derive
/// deterministic per-entity seeds, e.g. hash of (base_seed, unit, hour).
inline uint64_t MixHash(uint64_t x) {
  uint64_t z = x + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Combines two values into one hash deterministically.
inline uint64_t MixHash(uint64_t a, uint64_t b) {
  return MixHash(a ^
                 (MixHash(b) + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

/// Stable 64-bit hash of a string: FNV-1a over its bytes, then one MixHash
/// for avalanche. The repo's one string hash — fault channels and retry
/// tokens, tenant shard placement and the tenant table — so its values are
/// part of the determinism contract.
uint64_t ChannelHash(std::string_view text);

/// ChannelHash of `prefix` followed by `suffix`, without joining them.
uint64_t ChannelHash(std::string_view prefix, std::string_view suffix);

}  // namespace imcf

#endif  // IMCF_COMMON_RNG_H_
