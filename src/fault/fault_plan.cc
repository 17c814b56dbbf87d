#include "fault/fault_plan.h"

#include "common/rng.h"

namespace imcf {
namespace fault {

namespace {

/// Uniform double in [0, 1) from a hash value (same bit recipe the weather
/// model uses).
double ToUniform(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Domain separators so the stuck-window stream is independent of the
/// per-second stream.
constexpr uint64_t kAttemptDomain = 0xFA17A77E;
constexpr uint64_t kStuckDomain = 0xFA1757CC;

int64_t WindowIndex(SimTime t, SimTime window) {
  if (window <= 0) window = kSecondsPerHour;
  // Floor division so negative times stay in contiguous windows.
  const int64_t q = t / window;
  return (t % window != 0 && t < 0) ? q - 1 : q;
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kDrop:
      return "drop";
    case FaultKind::kDelay:
      return "delay";
    case FaultKind::kTransientError:
      return "transient-error";
    case FaultKind::kStuck:
      return "stuck";
  }
  return "?";
}

FaultOptions FaultOptions::UniformRate(double rate, uint64_t seed) {
  if (rate < 0.0) rate = 0.0;
  if (rate > 1.0) rate = 1.0;
  FaultOptions options;
  options.enabled = true;
  options.seed = seed;
  FaultRates rates;
  rates.drop_prob = rate / 3.0;
  rates.delay_prob = rate / 3.0;
  rates.transient_error_prob = rate / 3.0;
  options.device = rates;
  options.device.stuck_prob = rate / 4.0;
  options.weather = rates;
  options.cmc = rates;
  return options;
}

const FaultRates& FaultPlan::RatesFor(std::string_view channel) const {
  if (channel.substr(0, 7) == "device:") return options_.device;
  if (channel.substr(0, 4) == "cmc:") return options_.cmc;
  return options_.weather;
}

FaultDecision FaultPlan::At(std::string_view channel, SimTime t) const {
  if (!options_.enabled) return {};
  const FaultRates& rates = RatesFor(channel);
  if (rates.zero()) return {};
  return ForChannel(ChannelHash(channel), rates).At(t);
}

ChannelFaults FaultPlan::ForChannel(uint64_t channel_hash,
                                    const FaultRates& rates) const {
  ChannelFaults faults;
  if (!options_.enabled || rates.zero()) return faults;
  faults.rates_ = &rates;
  faults.attempt_key_ = MixHash(options_.seed ^ kAttemptDomain, channel_hash);
  if (rates.stuck_prob > 0.0) {
    faults.stuck_key_ = MixHash(options_.seed ^ kStuckDomain, channel_hash);
  }
  return faults;
}

FaultDecision ChannelFaults::At(SimTime t) const {
  FaultDecision decision;
  if (rates_ == nullptr) return decision;
  const FaultRates& rates = *rates_;

  // Stuck windows first: a stuck device swallows everything for the whole
  // window, which is what distinguishes it from a per-attempt fault.
  if (rates.stuck_prob > 0.0) {
    const int64_t window = WindowIndex(t, rates.stuck_window_seconds);
    const uint64_t hw = MixHash(stuck_key_, static_cast<uint64_t>(window));
    if (ToUniform(hw) < rates.stuck_prob) {
      decision.kind = FaultKind::kStuck;
      return decision;
    }
  }

  // Per-attempt faults: one uniform draw sliced into disjoint intervals.
  const double u = ToUniform(MixHash(attempt_key_, static_cast<uint64_t>(t)));
  double edge = rates.drop_prob;
  if (u < edge) {
    decision.kind = FaultKind::kDrop;
    return decision;
  }
  edge += rates.delay_prob;
  if (u < edge) {
    decision.kind = FaultKind::kDelay;
    decision.delay_seconds = rates.delay_seconds;
    return decision;
  }
  edge += rates.transient_error_prob;
  if (u < edge) {
    decision.kind = FaultKind::kTransientError;
    return decision;
  }
  return decision;
}

}  // namespace fault
}  // namespace imcf
