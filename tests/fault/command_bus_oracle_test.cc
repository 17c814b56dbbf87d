// Differential oracle for CommandBus::Deliver against the string path it
// replaced: the fault decision on "device:" + name (or "device:#<id>") for
// every attempt, with the decision and the retry loop written out here so
// the reference shares no fault code with the bus.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "fault/command_bus.h"
#include "obs/tracer.h"
#include "sim/simulation.h"

namespace imcf {
namespace fault {
namespace {

using Event = std::tuple<std::string, std::string, std::string, int64_t>;

std::vector<int64_t> Row(const Delivery& d) {
  return {d.delivered, d.attempts, d.latency_seconds,
          static_cast<int64_t>(d.last_fault)};
}
std::vector<int64_t> Row(const BusStats& s) {
  return {s.deliveries, s.delivered, s.delivered_after_retry,
          s.undeliverable, s.attempts, s.retries, s.faults[1], s.faults[2],
          s.faults[3], s.faults[4]};
}

// FaultPlan's decision for a device channel: one uniform per draw from two
// nested MixHashes of (seed ^ domain, channel hash, time or stuck window),
// sliced into disjoint drop / delay / transient intervals.
FaultDecision ReferenceAt(const FaultOptions& options,
                          const std::string& channel, SimTime t) {
  const FaultRates& rates = options.device;
  auto uniform = [&](uint64_t domain, int64_t x) {
    const uint64_t h = MixHash(MixHash(options.seed ^ domain,
                                       ChannelHash(channel)),
                               static_cast<uint64_t>(x));
    return static_cast<double>(h >> 11) * 0x1.0p-53;
  };
  const SimTime w = rates.stuck_window_seconds;
  const int64_t window = t / w - (t % w != 0 && t < 0 ? 1 : 0);
  if (rates.stuck_prob > 0.0 &&
      uniform(0xFA1757CC, window) < rates.stuck_prob) {
    return {FaultKind::kStuck, 0};
  }
  const double u = uniform(0xFA17A77E, t);
  if (u < rates.drop_prob) return {FaultKind::kDrop, 0};
  if (u < rates.drop_prob + rates.delay_prob) {
    return {FaultKind::kDelay, rates.delay_seconds};
  }
  if (u < rates.drop_prob + rates.delay_prob + rates.transient_error_prob) {
    return {FaultKind::kTransientError, 0};
  }
  return {};
}

Delivery ReferenceDeliver(const FaultPlan& plan, const RetryPolicy& policy,
                          const devices::DeviceRegistry* registry,
                          devices::DeviceId device, SimTime start,
                          BusStats* stats, std::vector<Event>* events) {
  std::string channel = "device:";
  if (registry != nullptr && registry->Get(device).ok()) {
    channel += (*registry->Get(device))->name;
  }
  if (channel.size() == 7) channel += '#' + std::to_string(device);
  const uint64_t token =
      MixHash(ChannelHash(channel), static_cast<uint64_t>(start));
  Delivery d;
  SimTime& elapsed = d.latency_seconds;
  for (int a = 1; a <= policy.max_attempts; ++a) {
    if (a > 1) {
      const SimTime backoff = policy.BackoffSeconds(a - 1, token);
      if (elapsed + backoff > policy.command_timeout_seconds) break;
      elapsed += backoff;
    }
    ++d.attempts;
    const FaultDecision decision =
        ReferenceAt(plan.options(), channel, start + elapsed);
    if (decision.faulted()) ++stats->faults[static_cast<int>(decision.kind)];
    d.last_fault = decision.delay_seconds > policy.attempt_timeout_seconds
                       ? FaultKind::kDrop
                       : decision.kind;
    d.delivered = d.last_fault == FaultKind::kNone ||
                  d.last_fault == FaultKind::kDelay;
    if (d.delivered) {
      elapsed += decision.delay_seconds;
    } else if (d.last_fault != FaultKind::kTransientError) {
      elapsed += policy.attempt_timeout_seconds;
    }
    if (d.delivered || elapsed >= policy.command_timeout_seconds) break;
  }
  ++stats->deliveries;
  stats->attempts += d.attempts;
  stats->retries += d.attempts - 1;
  ++(d.delivered ? stats->delivered : stats->undeliverable);
  stats->delivered_after_retry += d.delivered && d.attempts > 1 ? 1 : 0;
  if (!d.delivered || d.attempts > 1) {
    events->emplace_back(
        d.delivered ? "bus.retry_delivered" : "bus.undeliverable",
        channel.substr(0, obs::kSpanDetailBytes - 1), "attempts", d.attempts);
  }
  return d;
}

// Every Delivery, the BusStats and the bus.* events of 2400 commands to ids
// 0..n_devices-1 match, with and without 5 s delays counting as drops.
void ExpectBusMatchesReference(const devices::DeviceRegistry* registry,
                               devices::DeviceId n_devices,
                               uint64_t trace_id) {
  RetryPolicy short_timeout;
  short_timeout.attempt_timeout_seconds = 3;
  for (const RetryPolicy& policy : {RetryPolicy{}, short_timeout}) {
    ++trace_id;
    const FaultPlan plan(FaultOptions::UniformRate(0.6, /*seed=*/trace_id));
    BusStats want;
    std::vector<Event> want_events;
    {
      CommandBus bus(&plan, policy, registry);
      obs::ScopedSpan root("test.oracle", "test", obs::Tracer::Root(trace_id));
      for (int k = 0; k < 2400; ++k) {
        devices::ActuationCommand cmd;
        cmd.device = static_cast<devices::DeviceId>(k) % n_devices;
        cmd.time = FromCivil(2015, 1, 1) + k * 1237;  // spans stuck windows
        ASSERT_EQ(Row(bus.Deliver(cmd)),
                  Row(ReferenceDeliver(plan, policy, registry, cmd.device,
                                       cmd.time, &want, &want_events)))
            << k;
      }
      EXPECT_EQ(Row(bus.stats()), Row(want));
    }
    // Drop, delay, transient and stuck all occurred; so did retried and
    // undeliverable commands.
    for (size_t i = 1; i < kNumFaultKinds; ++i) EXPECT_GT(want.faults[i], 0);
    EXPECT_GT(want.delivered_after_retry * want.undeliverable, 0);
    std::vector<Event> events;  // every child of the root span
    for (const auto& r : obs::FlightRecorder::Default().Snapshot()) {
      if (r.trace_id == trace_id && r.parent_span_id != 0) {
        events.emplace_back(r.name, r.detail, r.arg_name, r.arg_value);
      }
    }
    EXPECT_EQ(events, want_events);
  }
}

TEST(CommandBusOracleTest, EveryDatasetDeviceMatchesTheStringPath) {
  uint64_t trace_id = 0xB05000;
  for (const trace::DatasetSpec& spec :
       {trace::FlatSpec(), trace::HouseSpec(), trace::DormsSpec()}) {
    SCOPED_TRACE(spec.name);
    sim::SimulationOptions options;
    options.spec = spec;
    options.hours = 24;
    sim::Simulator sim(options);
    ASSERT_TRUE(sim.Prepare().ok());
    ExpectBusMatchesReference(
        &sim.registry(), static_cast<devices::DeviceId>(sim.registry().size()),
        trace_id += 0x10);
  }
}

TEST(CommandBusOracleTest, RegistrylessAndLongNamesMatchTheStringPath) {
  ExpectBusMatchesReference(nullptr, 7, 0xB05100);  // all "#<id>" channels
  // Names past the small-string buffer and past the trace detail's 47
  // bytes, plus id 2, which the registry does not know.
  devices::DeviceRegistry registry;
  for (const size_t length : {21, 63}) {
    (void)registry.Add(std::string(length, 'x'), devices::DeviceKind::kLight,
                       0, "10.0.0.1");
  }
  ExpectBusMatchesReference(&registry, 3, 0xB05110);
}

TEST(CommandBusOracleTest, DeviceAddedAfterTheBusIsBuiltMatches) {
  devices::DeviceRegistry registry;
  ASSERT_TRUE(registry.Add("hall_ac", devices::DeviceKind::kHvac, 0).ok());
  const FaultPlan plan(FaultOptions::UniformRate(0.6, /*seed=*/0xB05200));
  CommandBus bus(&plan, RetryPolicy{}, &registry);
  // Id 1 is named only after the bus exists; id 2 stays unknown.
  ASSERT_TRUE(registry.Add("hall_light", devices::DeviceKind::kLight, 0).ok());
  BusStats want;
  std::vector<Event> want_events;
  for (int k = 0; k < 900; ++k) {
    devices::ActuationCommand cmd;
    cmd.device = static_cast<devices::DeviceId>(k % 3);
    cmd.time = FromCivil(2015, 1, 1) + k * 1237;
    ASSERT_EQ(Row(bus.Deliver(cmd)),
              Row(ReferenceDeliver(plan, RetryPolicy{}, &registry, cmd.device,
                                   cmd.time, &want, &want_events)))
        << k;
  }
  EXPECT_EQ(Row(bus.stats()), Row(want));
}

}  // namespace
}  // namespace fault
}  // namespace imcf
