// Bounded retries with exponential backoff over virtual time.
//
// Every retry decision is deterministic: the backoff jitter for attempt k of
// an operation identified by `token` comes from Rng(MixHash(token, k)), and
// all waiting elapses *virtual* seconds (the VirtualScheduler's clock), not
// wall time. The same (policy, token, fault schedule) therefore produces the
// identical retry trace on every run and every thread count.

#ifndef IMCF_FAULT_RETRY_H_
#define IMCF_FAULT_RETRY_H_

#include <algorithm>

#include "common/time.h"
#include "fault/fault_plan.h"

namespace imcf {
namespace fault {

/// Retry configuration for one class of operations.
struct RetryPolicy {
  /// Total attempts including the first (1 = no retries).
  int max_attempts = 3;
  /// Backoff before the first retry, in virtual seconds.
  SimTime initial_backoff_seconds = 2;
  /// Backoff growth per retry (exponential).
  double backoff_multiplier = 2.0;
  /// Backoff ceiling, in virtual seconds.
  SimTime max_backoff_seconds = 60;
  /// Deterministic jitter: the backoff is scaled by a factor drawn
  /// uniformly from [1, 1 + jitter_fraction).
  double jitter_fraction = 0.25;
  /// A lost (dropped/stuck) attempt is declared dead after this many
  /// virtual seconds.
  SimTime attempt_timeout_seconds = 10;
  /// Total virtual-time budget for the whole operation; once elapsed time
  /// would exceed it, no further attempt is made.
  SimTime command_timeout_seconds = 300;

  /// Jittered backoff before retry number `attempt` (1 = the backoff after
  /// the first failed attempt). Deterministic in (policy, token, attempt).
  SimTime BackoffSeconds(int attempt, uint64_t token) const;
};

/// Outcome of a single delivery attempt, reported by the attempt callback.
struct AttemptResult {
  FaultKind fault = FaultKind::kNone;  ///< kNone / kDelay mean success
  SimTime latency_seconds = 0;         ///< completion latency of the attempt
};

/// Trace of one retried operation.
struct RetryTrace {
  bool success = false;
  int attempts = 0;                 ///< attempts actually made (>= 1)
  SimTime elapsed_seconds = 0;      ///< virtual time spent, incl. backoff
  FaultKind last_fault = FaultKind::kNone;
  bool timed_out = false;           ///< stopped by command_timeout_seconds
};

/// Runs `attempt` under `policy`. The callback receives the virtual send
/// time of each attempt (start + accumulated timeouts/backoff) and reports
/// what the channel did; kNone and kDelay count as success, kDrop and
/// kStuck burn the attempt timeout, kTransientError fails fast. `token`
/// seeds the jitter stream. A template so the per-attempt call inlines:
/// the command bus runs it once per delivered command.
template <typename Attempt>
RetryTrace RunWithRetry(const RetryPolicy& policy, uint64_t token,
                        SimTime start, Attempt&& attempt) {
  RetryTrace trace;
  const int max_attempts = std::max(1, policy.max_attempts);
  for (int a = 1; a <= max_attempts; ++a) {
    if (a > 1) {
      const SimTime backoff = policy.BackoffSeconds(a - 1, token);
      if (trace.elapsed_seconds + backoff > policy.command_timeout_seconds) {
        trace.timed_out = true;
        break;
      }
      trace.elapsed_seconds += backoff;
    }
    ++trace.attempts;
    const AttemptResult result = attempt(start + trace.elapsed_seconds);
    trace.last_fault = result.fault;
    switch (result.fault) {
      case FaultKind::kNone:
      case FaultKind::kDelay:
        trace.elapsed_seconds += result.latency_seconds;
        trace.success = true;
        return trace;
      case FaultKind::kDrop:
      case FaultKind::kStuck:
        // Nothing comes back; the sender detects the loss by timeout.
        trace.elapsed_seconds += policy.attempt_timeout_seconds;
        break;
      case FaultKind::kTransientError:
        // An explicit error response is immediate.
        break;
    }
    if (trace.elapsed_seconds >= policy.command_timeout_seconds) {
      trace.timed_out = true;
      break;
    }
  }
  return trace;
}

}  // namespace fault
}  // namespace imcf

#endif  // IMCF_FAULT_RETRY_H_
