#include "fault/command_bus.h"

#include <string>

#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace imcf {
namespace fault {

CommandBus::CommandBus(const FaultPlan* plan, RetryPolicy policy,
                       const devices::DeviceRegistry* registry)
    : plan_(plan), policy_(policy), registry_(registry) {}

CommandBus::~CommandBus() {
  // One flush per bus lifetime; kind labels are a closed 5-value set.
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
  deliveries->Increment(stats_.deliveries);
  delivered->Increment(stats_.delivered);
  after_retry->Increment(stats_.delivered_after_retry);
  undeliverable->Increment(stats_.undeliverable);
  retries->Increment(stats_.retries);
  for (size_t i = 1; i < kNumFaultKinds; ++i) {
    reg.GetCounter("imcf_fault_injected_total",
                   "Injected faults observed by the command bus",
                   {{"kind", FaultKindName(static_cast<FaultKind>(i))}})
        ->Increment(stats_.faults[i]);
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

  std::string channel = "device:";
  if (registry_ != nullptr) {
    auto thing = registry_->Get(cmd.device);
    if (thing.ok()) channel += (*thing)->name;
  }
  if (channel.size() == 7) channel += '#' + std::to_string(cmd.device);

  const uint64_t token =
      MixHash(ChannelHash(channel), static_cast<uint64_t>(cmd.time));
  const RetryTrace trace = RunWithRetry(
      policy_, token, cmd.time, [this, &channel](SimTime when) {
        const FaultDecision decision = plan_->At(channel, when);
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
  // these events are deterministic.
  if (!trace.success) {
    obs::TraceEvent("bus.undeliverable", "fault", channel, "attempts",
                    trace.attempts);
  } else if (trace.attempts > 1) {
    obs::TraceEvent("bus.retry_delivered", "fault", channel, "attempts",
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
