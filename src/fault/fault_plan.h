// Deterministic fault injection for the command path.
//
// The paper's prototype (§IV) drives real openHAB devices over the LAN and a
// live weather API — exactly the links that fail in deployment. This module
// injects those failures *deterministically*: a FaultPlan is a pure function
// of (seed, channel, SimTime) deciding whether a given interaction is
// dropped, delayed, errors transiently, or hits a stuck device. Because the
// decision never consults mutable state, the same (seed, plan) replays the
// identical fault schedule for any call order and any thread count — the
// property the parallel simulation engine (DESIGN.md §7) is built on.
//
// Channels name the wrapped links:
//   "device:<thing-name>"  — command-bus delivery to one device
//   "weather"              — the weather service
//   "cmc:<household>"      — CMC probe simulations against one household
//
// Fault kinds (per attempt at one (channel, t) key):
//   kDrop           — the message vanishes; the sender times out.
//   kDelay          — delivered late by `delay_seconds`.
//   kTransientError — an immediate error response; retrying may succeed.
//   kStuck          — the device is unresponsive for a whole stuck window
//                     (hashed per window, not per second, so retries inside
//                     the window keep failing).

#ifndef IMCF_FAULT_FAULT_PLAN_H_
#define IMCF_FAULT_FAULT_PLAN_H_

#include <cstdint>
#include <string_view>

#include "common/time.h"

namespace imcf {
namespace fault {

/// What happened to one interaction attempt.
enum class FaultKind : uint8_t {
  kNone = 0,
  kDrop = 1,
  kDelay = 2,
  kTransientError = 3,
  kStuck = 4,
};

/// Number of FaultKind values (for per-kind tallies).
inline constexpr size_t kNumFaultKinds = 5;

const char* FaultKindName(FaultKind kind);

/// Per-channel-class fault rates. Probabilities are per attempt (drop,
/// delay, transient) or per stuck window (stuck); they are disjoint slices
/// of one uniform draw, so their sum must stay <= 1.
struct FaultRates {
  double drop_prob = 0.0;
  double delay_prob = 0.0;
  SimTime delay_seconds = 5;
  double transient_error_prob = 0.0;
  /// Probability that a whole stuck window is stuck.
  double stuck_prob = 0.0;
  /// Width of one stuck window in seconds.
  SimTime stuck_window_seconds = kSecondsPerHour;

  /// True iff every probability is zero.
  bool zero() const {
    return drop_prob <= 0.0 && delay_prob <= 0.0 &&
           transient_error_prob <= 0.0 && stuck_prob <= 0.0;
  }
};

/// The full plan configuration. Disabled by default so every existing code
/// path is bit-identical until a caller opts in.
struct FaultOptions {
  bool enabled = false;
  uint64_t seed = 7;
  FaultRates device;   ///< command-bus channels ("device:*")
  FaultRates weather;  ///< the weather service ("weather")
  FaultRates cmc;      ///< CMC probe channels ("cmc:*")

  /// Convenience constructor for sweeps: `rate` split evenly across drop /
  /// delay / transient on every channel class, plus rate/4 stuck windows on
  /// devices. rate in [0, 1].
  static FaultOptions UniformRate(double rate, uint64_t seed = 7);
};

/// One fault decision.
struct FaultDecision {
  FaultKind kind = FaultKind::kNone;
  SimTime delay_seconds = 0;  ///< set iff kind == kDelay

  bool faulted() const { return kind != FaultKind::kNone; }
};

/// One channel's fault schedule. FaultPlan::ForChannel derives its keys
/// from (seed, channel hash) once, so each attempt's decision is one hash
/// (and one more for the stuck-window check when stuck_prob > 0).
class ChannelFaults {
 public:
  /// A schedule that never faults.
  ChannelFaults() = default;

  /// The decision for one attempt at `t`; equals FaultPlan::At on the
  /// channel this schedule was derived for.
  FaultDecision At(SimTime t) const;

 private:
  friend class FaultPlan;
  const FaultRates* rates_ = nullptr;  // null: never faults
  uint64_t attempt_key_ = 0;
  uint64_t stuck_key_ = 0;  // derived iff rates_->stuck_prob > 0
};

/// The seedable, deterministic fault schedule.
class FaultPlan {
 public:
  /// Default-constructed plans are disabled (never fault).
  FaultPlan() = default;
  explicit FaultPlan(FaultOptions options) : options_(options) {}

  bool enabled() const { return options_.enabled; }
  const FaultOptions& options() const { return options_; }

  /// The fault decision for one interaction attempt on `channel` at `t`.
  /// Pure function of (options.seed, channel, t): identical across calls,
  /// instances, and threads.
  FaultDecision At(std::string_view channel, SimTime t) const;

  /// The schedule of a channel the caller already resolved: `channel_hash`
  /// is its ChannelHash and `rates` the options' rates for its class
  /// (borrowed; the plan's own rates outlive any caller). The command bus
  /// derives one per delivery and asks it once per attempt.
  ChannelFaults ForChannel(uint64_t channel_hash,
                           const FaultRates& rates) const;

 private:
  const FaultRates& RatesFor(std::string_view channel) const;

  FaultOptions options_{};
};

}  // namespace fault
}  // namespace imcf

#endif  // IMCF_FAULT_FAULT_PLAN_H_
