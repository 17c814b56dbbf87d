#include "fault/retry.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace imcf {
namespace fault {

SimTime RetryPolicy::BackoffSeconds(int attempt, uint64_t token) const {
  if (attempt < 1) attempt = 1;
  double backoff = static_cast<double>(initial_backoff_seconds) *
                   std::pow(backoff_multiplier, attempt - 1);
  backoff = std::min(backoff, static_cast<double>(max_backoff_seconds));
  if (jitter_fraction > 0.0) {
    // Deterministic jitter: the stream is keyed on (token, attempt), never
    // on shared state, so replay is exact for any interleaving.
    Rng rng(MixHash(token, static_cast<uint64_t>(attempt)));
    backoff *= 1.0 + rng.UniformDouble() * jitter_fraction;
  }
  return static_cast<SimTime>(std::llround(backoff));
}

}  // namespace fault
}  // namespace imcf
