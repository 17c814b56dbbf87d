#include "fault/retry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace imcf {
namespace fault {
namespace {

TEST(RetryPolicyTest, BackoffGrowsExponentiallyWithinJitterBand) {
  RetryPolicy policy;
  policy.initial_backoff_seconds = 2;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_seconds = 60;
  policy.jitter_fraction = 0.25;
  for (int attempt = 1; attempt <= 4; ++attempt) {
    const double base = 2.0 * std::pow(2.0, attempt - 1);
    const SimTime backoff = policy.BackoffSeconds(attempt, /*token=*/99);
    EXPECT_GE(backoff, static_cast<SimTime>(base));
    EXPECT_LE(backoff, static_cast<SimTime>(base * 1.25) + 1);
  }
}

TEST(RetryPolicyTest, BackoffIsCapped) {
  RetryPolicy policy;
  policy.initial_backoff_seconds = 2;
  policy.backoff_multiplier = 10.0;
  policy.max_backoff_seconds = 30;
  policy.jitter_fraction = 0.0;
  EXPECT_EQ(policy.BackoffSeconds(5, 1), 30);
}

// Pins BackoffSeconds bit for bit against its formula written out: growth
// min(initial * multiplier^(n-1), max), times a jitter from the stream
// Rng(MixHash(token, n)).
TEST(RetryPolicyTest, BackoffMatchesTheWrittenOutFormula) {
  for (const double multiplier : {2.0, 1.5, 3.7}) {
    RetryPolicy policy;
    policy.initial_backoff_seconds = 3;
    policy.backoff_multiplier = multiplier;
    policy.max_backoff_seconds = 500;  // 3.7 reaches it by retry 5
    policy.jitter_fraction = 0.3;
    for (int retry = 1; retry <= 8; ++retry) {
      for (const uint64_t token : {0ULL, 42ULL, 0xFEEDFACECAFEBEEFULL}) {
        const double growth =
            std::min(3.0 * std::pow(multiplier, retry - 1), 500.0);
        Rng rng(MixHash(token, static_cast<uint64_t>(retry)));
        const double jitter = 1.0 + rng.UniformDouble() * 0.3;
        EXPECT_EQ(policy.BackoffSeconds(retry, token),
                  std::llround(growth * jitter))
            << multiplier << " retry " << retry << " token " << token;
      }
    }
  }
}

TEST(RetryPolicyTest, BackoffDeterministicPerToken) {
  RetryPolicy policy;
  EXPECT_EQ(policy.BackoffSeconds(2, 7), policy.BackoffSeconds(2, 7));
  // Different tokens should eventually produce different jitter.
  bool any_differ = false;
  for (uint64_t token = 0; token < 32 && !any_differ; ++token) {
    any_differ =
        policy.BackoffSeconds(3, token) != policy.BackoffSeconds(3, token + 1);
  }
  EXPECT_TRUE(any_differ);
}

TEST(RunWithRetryTest, ImmediateSuccess) {
  RetryPolicy policy;
  int calls = 0;
  const RetryTrace trace =
      RunWithRetry(policy, /*token=*/1, /*start=*/1000, [&](SimTime when) {
        ++calls;
        EXPECT_EQ(when, 1000);
        return AttemptResult{};
      });
  EXPECT_TRUE(trace.success);
  EXPECT_EQ(trace.attempts, 1);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(trace.elapsed_seconds, 0);
  EXPECT_FALSE(trace.timed_out);
}

TEST(RunWithRetryTest, DelayIsSuccessWithLatency) {
  RetryPolicy policy;
  const RetryTrace trace =
      RunWithRetry(policy, 1, 0, [&](SimTime) {
        AttemptResult r;
        r.fault = FaultKind::kDelay;
        r.latency_seconds = 5;
        return r;
      });
  EXPECT_TRUE(trace.success);
  EXPECT_EQ(trace.attempts, 1);
  EXPECT_EQ(trace.elapsed_seconds, 5);
  EXPECT_EQ(trace.last_fault, FaultKind::kDelay);
}

TEST(RunWithRetryTest, RecoversAfterTransientErrors) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  int calls = 0;
  SimTime last_when = -1;
  const RetryTrace trace = RunWithRetry(policy, 1, 0, [&](SimTime when) {
    EXPECT_GT(when, last_when);  // attempts move forward in virtual time
    last_when = when;
    ++calls;
    AttemptResult r;
    if (calls < 3) r.fault = FaultKind::kTransientError;
    return r;
  });
  EXPECT_TRUE(trace.success);
  EXPECT_EQ(trace.attempts, 3);
  EXPECT_GT(trace.elapsed_seconds, 0);  // backoff elapsed between attempts
}

TEST(RunWithRetryTest, ExhaustsAttempts) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  int calls = 0;
  const RetryTrace trace = RunWithRetry(policy, 1, 0, [&](SimTime) {
    ++calls;
    AttemptResult r;
    r.fault = FaultKind::kDrop;
    return r;
  });
  EXPECT_FALSE(trace.success);
  EXPECT_EQ(trace.attempts, 4);
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(trace.last_fault, FaultKind::kDrop);
  // Each dropped attempt burned its timeout on top of the backoff.
  EXPECT_GE(trace.elapsed_seconds, 4 * policy.attempt_timeout_seconds);
}

TEST(RunWithRetryTest, CommandTimeoutStopsRetrying) {
  RetryPolicy policy;
  policy.max_attempts = 100;
  policy.attempt_timeout_seconds = 10;
  policy.initial_backoff_seconds = 10;
  policy.backoff_multiplier = 1.0;
  policy.jitter_fraction = 0.0;
  policy.command_timeout_seconds = 45;  // room for only a couple of attempts
  int calls = 0;
  const RetryTrace trace = RunWithRetry(policy, 1, 0, [&](SimTime) {
    ++calls;
    AttemptResult r;
    r.fault = FaultKind::kDrop;
    return r;
  });
  EXPECT_FALSE(trace.success);
  EXPECT_TRUE(trace.timed_out);
  EXPECT_LT(calls, 6);
  EXPECT_LE(trace.elapsed_seconds,
            policy.command_timeout_seconds + policy.attempt_timeout_seconds);
}

TEST(RunWithRetryTest, DeterministicTraceForSameToken) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  auto failing = [](SimTime) {
    AttemptResult r;
    r.fault = FaultKind::kTransientError;
    return r;
  };
  const RetryTrace a = RunWithRetry(policy, 33, 100, failing);
  const RetryTrace b = RunWithRetry(policy, 33, 100, failing);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.elapsed_seconds, b.elapsed_seconds);
}

}  // namespace
}  // namespace fault
}  // namespace imcf
