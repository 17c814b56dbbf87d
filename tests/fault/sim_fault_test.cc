// End-to-end fault-injection tests over the simulator: zero cost when
// disabled, deterministic degradation when enabled, thread-count
// invariance, and firewall/energy accounting consistency.

#include <gtest/gtest.h>

#include <string_view>

#include "fault/fault_plan.h"
#include "obs/flight_recorder.h"
#include "obs/tracer.h"
#include "sim/simulation.h"

namespace imcf {
namespace sim {
namespace {

SimulationOptions TightFlat() {
  SimulationOptions options;
  options.spec = trace::FlatSpec();
  options.start = FromCivil(2014, 1, 1);
  options.hours = (31 + 28) * 24;  // two months keeps each run fast
  options.budget_kwh = 800.0;
  return options;
}

TEST(SimFaultTest, DisabledFaultsAreBitIdentical) {
  // Default options leave the fault layer off entirely: no command bus is
  // constructed and the weather proxy passes through, so two independent
  // simulators must agree to the last bit.
  Simulator a(TightFlat());
  Simulator b(TightFlat());
  ASSERT_TRUE(a.Prepare().ok());
  ASSERT_TRUE(b.Prepare().ok());
  for (const Policy policy :
       {Policy::kNoRule, Policy::kMetaRule, Policy::kEnergyPlanner}) {
    const auto ra = a.Run(policy);
    const auto rb = b.Run(policy);
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    EXPECT_DOUBLE_EQ(ra->fce_pct, rb->fce_pct);
    EXPECT_DOUBLE_EQ(ra->fe_kwh, rb->fe_kwh);
    EXPECT_EQ(ra->commands_failed, 0);
    EXPECT_EQ(rb->commands_failed, 0);
  }
}

TEST(SimFaultTest, FaultsCauseFailuresAndReduceEnergy) {
  SimulationOptions faulty = TightFlat();
  faulty.fault = fault::FaultOptions::UniformRate(0.25, /*seed=*/9);
  Simulator clean_sim(TightFlat());
  Simulator faulty_sim(faulty);
  ASSERT_TRUE(clean_sim.Prepare().ok());
  ASSERT_TRUE(faulty_sim.Prepare().ok());

  const auto clean = clean_sim.Run(Policy::kMetaRule);
  const auto degraded = faulty_sim.Run(Policy::kMetaRule);
  ASSERT_TRUE(clean.ok());
  ASSERT_TRUE(degraded.ok());

  // Some accepted commands could not be delivered...
  EXPECT_GT(degraded->commands_failed, 0);
  // ...each of them is also counted as dropped...
  EXPECT_LE(degraded->commands_failed, degraded->commands_dropped);
  // ...their energy was never charged, and the missed actuations show up
  // as convenience error (MR is exact when healthy).
  EXPECT_LT(degraded->fe_kwh, clean->fe_kwh);
  EXPECT_GT(degraded->fce_pct, clean->fce_pct);
}

TEST(SimFaultTest, FaultRunsReplayDeterministically) {
  SimulationOptions options = TightFlat();
  options.fault = fault::FaultOptions::UniformRate(0.25, /*seed=*/9);
  Simulator a(options);
  Simulator b(options);
  ASSERT_TRUE(a.Prepare().ok());
  ASSERT_TRUE(b.Prepare().ok());
  const auto ra = a.Run(Policy::kEnergyPlanner);
  const auto rb = b.Run(Policy::kEnergyPlanner);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_DOUBLE_EQ(ra->fce_pct, rb->fce_pct);
  EXPECT_DOUBLE_EQ(ra->fe_kwh, rb->fe_kwh);
  EXPECT_EQ(ra->commands_failed, rb->commands_failed);
  EXPECT_EQ(ra->commands_dropped, rb->commands_dropped);
}

TEST(SimFaultTest, FaultRunsInvariantToThreadCount) {
  SimulationOptions options = TightFlat();
  options.fault = fault::FaultOptions::UniformRate(0.2, /*seed=*/3);
  Simulator simulator(options);
  ASSERT_TRUE(simulator.Prepare().ok());
  const std::vector<Policy> policies = {Policy::kMetaRule,
                                        Policy::kEnergyPlanner};
  ThreadPool pool(4);
  const auto serial = simulator.RunGrid(policies, /*repetitions=*/3);
  const auto parallel = simulator.RunGrid(policies, /*repetitions=*/3, &pool);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(serial->size(), parallel->size());
  for (size_t i = 0; i < serial->size(); ++i) {
    EXPECT_DOUBLE_EQ((*serial)[i].fce_pct.mean(), (*parallel)[i].fce_pct.mean());
    EXPECT_DOUBLE_EQ((*serial)[i].fe_kwh.mean(), (*parallel)[i].fe_kwh.mean());
    EXPECT_DOUBLE_EQ((*serial)[i].fce_pct.stddev(),
                     (*parallel)[i].fce_pct.stddev());
  }
}

// Satellite: a command the firewall rejects must never appear in the
// energy totals. Block unit 0's HVAC at the chain level (the paper's
// "iptables -s <addr> -j DROP") and check the blocked run consumes
// strictly less energy and reports more error — the blocked necessity
// rules are counted as discomfort, not silently ignored.
TEST(SimFaultTest, FirewallRejectedCommandsNeverCharged) {
  SimulationOptions blocked_options = TightFlat();
  blocked_options.chain_setup = [](firewall::Chain* chain) {
    firewall::ChainRule rule;
    rule.address = "10.0.0.1";  // unit 0 HVAC
    rule.target = firewall::Verdict::kDrop;
    chain->Append(rule);
  };
  Simulator clean_sim(TightFlat());
  Simulator blocked_sim(blocked_options);
  ASSERT_TRUE(clean_sim.Prepare().ok());
  ASSERT_TRUE(blocked_sim.Prepare().ok());

  const auto clean = clean_sim.Run(Policy::kMetaRule);
  const auto blocked = blocked_sim.Run(Policy::kMetaRule);
  ASSERT_TRUE(clean.ok());
  ASSERT_TRUE(blocked.ok());

  EXPECT_GT(blocked->commands_dropped, 0);
  EXPECT_LT(blocked->fe_kwh, clean->fe_kwh);
  EXPECT_GT(blocked->fce_pct, clean->fce_pct);
  // Chain drops are admin policy, not delivery failures.
  EXPECT_EQ(blocked->commands_failed, 0);
}

// The run's command tallies are the firewall's own counters, and each
// plan.slot span carries that slot's share of them as cmd_issued /
// cmd_dropped. Summed over the run's slots the span args must give the
// report's totals, with chain drops, plan drops and undeliverable
// commands all in play.
TEST(SimFaultTest, SlotSpanCommandArgsSumToRunTallies) {
  SimulationOptions options = TightFlat();
  options.hours = 3 * 24;  // every span of the run fits one trace ring
  options.fault = fault::FaultOptions::UniformRate(0.25, /*seed=*/9);
  options.chain_setup = [](firewall::Chain* chain) {
    firewall::ChainRule rule;
    rule.address = "10.0.0.1";  // unit 0 HVAC
    rule.target = firewall::Verdict::kDrop;
    chain->Append(rule);
  };
  Simulator sim(options);
  ASSERT_TRUE(sim.Prepare().ok());
  uint64_t trace_id = 0x51075;
  for (const Policy policy : {Policy::kEnergyPlanner, Policy::kIfttt}) {
    ++trace_id;
    Result<SimulationReport> report = Status::Internal("not run");
    {
      obs::ScopedSpan root("test.run", "test", obs::Tracer::Root(trace_id));
      report = sim.Run(policy);
    }
    ASSERT_TRUE(report.ok());
    int64_t slots = 0;
    int64_t issued = 0;
    int64_t dropped = 0;
    for (const obs::SpanRecord& r :
         obs::FlightRecorder::Default().Snapshot()) {
      if (r.trace_id != trace_id || std::string_view(r.name) != "plan.slot") {
        continue;
      }
      ++slots;
      ASSERT_STREQ(r.arg_name, "cmd_issued");
      ASSERT_STREQ(r.arg2_name, "cmd_dropped");
      issued += r.arg_value;
      dropped += r.arg2_value;
    }
    EXPECT_EQ(slots, report->slots) << PolicyName(policy);
    EXPECT_EQ(issued, report->commands_issued) << PolicyName(policy);
    EXPECT_EQ(dropped, report->commands_dropped) << PolicyName(policy);
    EXPECT_GT(report->commands_failed, 0) << PolicyName(policy);
    EXPECT_GT(report->commands_dropped, report->commands_failed)
        << PolicyName(policy);
  }
}

}  // namespace
}  // namespace sim
}  // namespace imcf
