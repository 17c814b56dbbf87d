#include "common/rng.h"

#include <cmath>
#include <initializer_list>

namespace imcf {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

double Rng::Gaussian() {
  // Box–Muller; u1 in (0, 1] to avoid log(0).
  double u1 = 1.0 - UniformDouble();
  double u2 = UniformDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * Gaussian();
}

Rng Rng::Fork() { return Rng(Next()); }

uint64_t ChannelHash(std::string_view text) { return ChannelHash(text, {}); }

uint64_t ChannelHash(std::string_view prefix, std::string_view suffix) {
  uint64_t h = 1469598103934665603ULL;
  for (const std::string_view part : {prefix, suffix}) {
    for (const char c : part) {
      h ^= static_cast<uint8_t>(c);
      h *= 1099511628211ULL;
    }
  }
  return MixHash(h);
}

}  // namespace imcf
