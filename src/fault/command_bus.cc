#include "fault/command_bus.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <iterator>
#include <string_view>

#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace imcf {
namespace fault {

CommandBus::CommandBus(const FaultPlan* plan, RetryPolicy policy,
                       const devices::DeviceRegistry* registry)
    : plan_(plan), policy_(policy), registry_(registry) {}

CommandBus::~CommandBus() {
  // One flush per bus lifetime; kind labels are a closed 5-value set,
  // resolved once per process like the unlabelled counters.
  using obs::Counter;
  auto& reg = obs::MetricRegistry::Default();
  static Counter* const deliveries = reg.GetCounter(
      "imcf_fault_deliveries_total", "Command deliveries attempted");
  static Counter* const delivered = reg.GetCounter(
      "imcf_fault_delivered_total", "Commands eventually delivered");
  static Counter* const after_retry = reg.GetCounter(
      "imcf_fault_delivered_after_retry_total",
      "Commands delivered only after at least one retry");
  static Counter* const undeliverable = reg.GetCounter(
      "imcf_fault_undeliverable_total",
      "Commands that exhausted retries or timed out");
  static Counter* const retries = reg.GetCounter(
      "imcf_fault_retries_total", "Delivery attempts beyond the first");
  static const std::array<Counter*, kNumFaultKinds> injected = [&reg] {
    std::array<Counter*, kNumFaultKinds> by_kind{};
    for (size_t i = 1; i < kNumFaultKinds; ++i) {
      by_kind[i] = reg.GetCounter(
          "imcf_fault_injected_total",
          "Injected faults observed by the command bus",
          {{"kind", FaultKindName(static_cast<FaultKind>(i))}});
    }
    return by_kind;
  }();
  deliveries->Increment(stats_.deliveries);
  delivered->Increment(stats_.delivered);
  after_retry->Increment(stats_.delivered_after_retry);
  undeliverable->Increment(stats_.undeliverable);
  retries->Increment(stats_.retries);
  for (size_t i = 1; i < kNumFaultKinds; ++i) {
    injected[i]->Increment(stats_.faults[i]);
  }
}

Delivery CommandBus::Deliver(const devices::ActuationCommand& cmd) {
  ++stats_.deliveries;
  Delivery delivery;
  if (plan_ == nullptr || !plan_->enabled()) {
    delivery.delivered = true;
    delivery.attempts = 1;
    ++stats_.delivered;
    ++stats_.attempts;
    return delivery;
  }

  // The channel is "device:<thing-name>", whose hash the registry stored
  // when the device was added, or "device:#<id>" for a device the registry
  // does not name, hashed here from its two parts. The channel's fault keys
  // are derived once per delivery, not per attempt.
  constexpr std::string_view kDevicePrefix = "device:";
  std::string_view name;
  uint64_t channel = 0;
  if (registry_ != nullptr) {
    auto thing = registry_->Get(cmd.device);
    if (thing.ok()) {
      name = (*thing)->name;
      channel = (*thing)->channel_hash;
    }
  }
  char id_text[16] = {'#'};
  if (name.empty()) {
    const char* const end =
        std::to_chars(id_text + 1, std::end(id_text), cmd.device).ptr;
    name = std::string_view(id_text, static_cast<size_t>(end - id_text));
    channel = ChannelHash(kDevicePrefix, name);
  }
  const ChannelFaults faults =
      plan_->ForChannel(channel, plan_->options().device);

  const uint64_t token = MixHash(channel, static_cast<uint64_t>(cmd.time));
  const RetryTrace trace =
      RunWithRetry(policy_, token, cmd.time, [&](SimTime when) {
        const FaultDecision decision = faults.At(when);
        if (decision.faulted()) {
          ++stats_.faults[static_cast<size_t>(decision.kind)];
        }
        AttemptResult result;
        result.fault = decision.kind;
        if (decision.kind == FaultKind::kDelay) {
          if (decision.delay_seconds > policy_.attempt_timeout_seconds) {
            // So late the sender already gave up on the attempt.
            result.fault = FaultKind::kDrop;
          } else {
            result.latency_seconds = decision.delay_seconds;
          }
        }
        return result;
      });

  delivery.delivered = trace.success;
  delivery.attempts = trace.attempts;
  delivery.latency_seconds = trace.elapsed_seconds;
  delivery.last_fault = trace.last_fault;
  // Clean first-attempt deliveries stay span-free; only retries and
  // failures leave events (the channel names the device, the attempt count
  // the retry depth). Fault decisions are (seed, channel, time)-pure, so
  // these events are deterministic. The channel text is written only here,
  // cut where the span record cuts its detail.
  if (!trace.success || trace.attempts > 1) {
    char text[obs::kSpanDetailBytes - 1];
    std::memcpy(text, kDevicePrefix.data(), kDevicePrefix.size());
    const size_t tail =
        std::min(name.size(), sizeof(text) - kDevicePrefix.size());
    std::memcpy(text + kDevicePrefix.size(), name.data(), tail);
    obs::TraceEvent(
        trace.success ? "bus.retry_delivered" : "bus.undeliverable", "fault",
        std::string_view(text, kDevicePrefix.size() + tail), "attempts",
        trace.attempts);
  }
  stats_.attempts += trace.attempts;
  stats_.retries += trace.attempts > 0 ? trace.attempts - 1 : 0;
  if (trace.success) {
    ++stats_.delivered;
    if (trace.attempts > 1) ++stats_.delivered_after_retry;
  } else {
    ++stats_.undeliverable;
  }
  return delivery;
}

}  // namespace fault
}  // namespace imcf
