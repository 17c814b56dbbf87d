#include "sim/simulation.h"

#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "obs/flight_recorder.h"

namespace imcf {
namespace sim {
namespace {

// Four winter-to-spring months of the flat dataset with a proportionally
// tight budget: long enough that budget pinches occur (the planner must
// drop rules), short enough that each test stays fast (~2900 slots).
SimulationOptions TightFlat() {
  SimulationOptions options;
  options.spec = trace::FlatSpec();
  options.start = FromCivil(2014, 1, 1);
  options.hours = (31 + 28 + 31 + 30) * 24;
  options.budget_kwh = 1600.0;  // demand over the window is ~2000 kWh
  return options;
}

TEST(SimulatorTest, RequiresPrepare) {
  Simulator simulator(TightFlat());
  EXPECT_TRUE(
      simulator.Run(Policy::kNoRule).status().IsFailedPrecondition());
}

TEST(SimulatorTest, NoRuleConsumesNothingMaximisesError) {
  Simulator simulator(TightFlat());
  ASSERT_TRUE(simulator.Prepare().ok());
  const auto report = simulator.Run(Policy::kNoRule);
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->fe_kwh, 0.0);
  EXPECT_GT(report->fce_pct, 30.0);  // winter ambient is uncomfortable
  EXPECT_TRUE(report->within_budget);
  EXPECT_EQ(report->commands_issued, report->commands_dropped);
  EXPECT_DOUBLE_EQ(report->mean_adopted_fraction, 0.0);
}

TEST(SimulatorTest, MetaRuleZeroErrorMaxEnergy) {
  Simulator simulator(TightFlat());
  ASSERT_TRUE(simulator.Prepare().ok());
  const auto report = simulator.Run(Policy::kMetaRule);
  ASSERT_TRUE(report.ok());
  EXPECT_NEAR(report->fce_pct, 0.0, 1e-9);  // flat table has no conflicts
  EXPECT_GT(report->fe_kwh, 100.0);
  EXPECT_EQ(report->commands_dropped, 0);
  EXPECT_DOUBLE_EQ(report->mean_adopted_fraction, 1.0);
}

TEST(SimulatorTest, EnergyPlannerRespectsBudgetAndBeatsNoRule) {
  Simulator simulator(TightFlat());
  ASSERT_TRUE(simulator.Prepare().ok());
  const auto ep = simulator.Run(Policy::kEnergyPlanner);
  const auto nr = simulator.Run(Policy::kNoRule);
  const auto mr = simulator.Run(Policy::kMetaRule);
  ASSERT_TRUE(ep.ok());
  EXPECT_TRUE(ep->within_budget);
  EXPECT_LT(ep->fce_pct, nr->fce_pct / 3.0);
  EXPECT_LE(ep->fe_kwh, mr->fe_kwh + 1e-6);
  EXPECT_GT(ep->mean_adopted_fraction, 0.5);
  EXPECT_GT(ep->commands_dropped, 0);
}

TEST(SimulatorTest, IftttIsEnergyOblivious) {
  Simulator simulator(TightFlat());
  ASSERT_TRUE(simulator.Prepare().ok());
  const auto ifttt = simulator.Run(Policy::kIfttt);
  const auto nr = simulator.Run(Policy::kNoRule);
  const auto ep = simulator.Run(Policy::kEnergyPlanner);
  ASSERT_TRUE(ifttt.ok());
  EXPECT_GT(ifttt->fe_kwh, 0.0);
  // IFTTT error sits between EP's and NR's (Fig. 6 ordering).
  EXPECT_LT(ifttt->fce_pct, nr->fce_pct);
  EXPECT_GT(ifttt->fce_pct, ep->fce_pct);
  EXPECT_EQ(ifttt->commands_dropped, 0);  // no plan filter for recipes
}

TEST(SimulatorTest, DeterministicPerSeedAndRep) {
  Simulator simulator(TightFlat());
  ASSERT_TRUE(simulator.Prepare().ok());
  const auto a = simulator.Run(Policy::kEnergyPlanner, 3);
  const auto b = simulator.Run(Policy::kEnergyPlanner, 3);
  const auto c = simulator.Run(Policy::kEnergyPlanner, 4);
  ASSERT_TRUE(a.ok());
  EXPECT_DOUBLE_EQ(a->fce_pct, b->fce_pct);
  EXPECT_DOUBLE_EQ(a->fe_kwh, b->fe_kwh);
  // A different repetition seed may legitimately converge to the same
  // plan (the greedy repair is deterministic); it must stay close.
  EXPECT_NEAR(a->fce_pct, c->fce_pct, 0.5);
}

TEST(SimulatorTest, ReportBookkeepingConsistent) {
  Simulator simulator(TightFlat());
  ASSERT_TRUE(simulator.Prepare().ok());
  const auto report = simulator.Run(Policy::kEnergyPlanner);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->dataset, "flat");
  EXPECT_EQ(report->policy, "EP");
  EXPECT_EQ(report->slots, 120 * 24);
  // Table II windows cover 21h (temp) + 18h (light) per day: 39 rule-hours.
  EXPECT_EQ(report->activations, static_cast<int64_t>(120) * 39);
  EXPECT_EQ(report->commands_issued, report->activations);
  EXPECT_GE(report->ft_seconds, 0.0);
}

TEST(SimulatorTest, AnnealerComparableToClimber) {
  Simulator simulator(TightFlat());
  ASSERT_TRUE(simulator.Prepare().ok());
  const auto sa = simulator.Run(Policy::kAnnealer);
  const auto ep = simulator.Run(Policy::kEnergyPlanner);
  ASSERT_TRUE(sa.ok());
  EXPECT_TRUE(sa->within_budget);
  EXPECT_LT(sa->fce_pct, ep->fce_pct + 5.0);
}

TEST(SimulatorTest, SavingsKnobShrinksBudget) {
  SimulationOptions options = TightFlat();
  options.savings_fraction = 0.3;
  Simulator simulator(options);
  ASSERT_TRUE(simulator.Prepare().ok());
  EXPECT_NEAR(simulator.total_budget_kwh(), 1600.0 * 0.7, 1e-6);
  const auto tight = simulator.Run(Policy::kEnergyPlanner);
  ASSERT_TRUE(tight.ok());

  Simulator baseline(TightFlat());
  ASSERT_TRUE(baseline.Prepare().ok());
  const auto loose = baseline.Run(Policy::kEnergyPlanner);
  EXPECT_LT(tight->fe_kwh, loose->fe_kwh);
  EXPECT_GE(tight->fce_pct, loose->fce_pct - 0.2);
}

TEST(SimulatorTest, ReconfigureRebuildsPlanWithoutReprepare) {
  Simulator simulator(TightFlat());
  ASSERT_TRUE(simulator.Prepare().ok());
  const auto before = simulator.Run(Policy::kEnergyPlanner);
  ASSERT_TRUE(simulator.Reconfigure(0.4, energy::AmortizationKind::kEaf).ok());
  EXPECT_NEAR(simulator.total_budget_kwh(), 1600.0 * 0.6, 1e-6);
  const auto after = simulator.Run(Policy::kEnergyPlanner);
  EXPECT_LT(after->fe_kwh, before->fe_kwh);
  EXPECT_TRUE(simulator.Reconfigure(-0.1, energy::AmortizationKind::kEaf)
                  .IsOutOfRange());
}

TEST(SimulatorTest, AmortizationKindsProduceDifferentWinterBudgets) {
  SimulationOptions eaf = TightFlat();
  eaf.amortization = energy::AmortizationKind::kEaf;
  SimulationOptions laf = TightFlat();
  laf.amortization = energy::AmortizationKind::kLaf;
  Simulator sim_eaf(eaf), sim_laf(laf);
  ASSERT_TRUE(sim_eaf.Prepare().ok());
  ASSERT_TRUE(sim_laf.Prepare().ok());
  // The window's demand is January-heavy like the ECP; an EAF budget that
  // tracks the profile wastes less and serves more convenience than a flat
  // LAF split (this is the A1 ablation's claim).
  const auto eaf_report = sim_eaf.Run(Policy::kEnergyPlanner);
  const auto laf_report = sim_laf.Run(Policy::kEnergyPlanner);
  EXPECT_LT(eaf_report->fce_pct, laf_report->fce_pct);
}

TEST(SimulatorTest, RunRepeatedAggregatesStats) {
  Simulator simulator(TightFlat());
  ASSERT_TRUE(simulator.Prepare().ok());
  const auto repeated = simulator.RunRepeated(Policy::kEnergyPlanner, 3);
  ASSERT_TRUE(repeated.ok());
  EXPECT_EQ(repeated->fce_pct.count(), 3);
  EXPECT_GT(repeated->fce_pct.mean(), 0.0);
  EXPECT_GE(repeated->fce_pct.stddev(), 0.0);
  EXPECT_EQ(repeated->policy, "EP");
}

TEST(SimulatorTest, ParallelRunRepeatedIsBitIdenticalToSerial) {
  // The determinism contract of the parallel substrate: repetitions derive
  // their streams from (seed, rep, policy) and aggregate in rep order, so
  // every thread count reproduces the serial metrics bit for bit (F_T is a
  // wall-clock measurement and is excluded).
  SimulationOptions options = TightFlat();
  options.hours = 30 * 24;  // keep 4 threads × reps affordable
  Simulator simulator(options);
  ASSERT_TRUE(simulator.Prepare().ok());
  const auto serial = simulator.RunRepeated(Policy::kEnergyPlanner, 3);
  ASSERT_TRUE(serial.ok());
  for (int workers : {2, 4}) {
    ThreadPool pool(workers);
    const auto parallel =
        simulator.RunRepeated(Policy::kEnergyPlanner, 3, &pool);
    ASSERT_TRUE(parallel.ok());
    EXPECT_DOUBLE_EQ(parallel->fce_pct.mean(), serial->fce_pct.mean());
    EXPECT_DOUBLE_EQ(parallel->fce_pct.stddev(), serial->fce_pct.stddev());
    EXPECT_DOUBLE_EQ(parallel->fe_kwh.mean(), serial->fe_kwh.mean());
    EXPECT_DOUBLE_EQ(parallel->fe_kwh.stddev(), serial->fe_kwh.stddev());
    EXPECT_DOUBLE_EQ(parallel->co2_kg.mean(), serial->co2_kg.mean());
  }
}

TEST(SimulatorTest, RunGridMatchesPerPolicyRuns) {
  SimulationOptions options = TightFlat();
  options.hours = 30 * 24;
  Simulator simulator(options);
  ASSERT_TRUE(simulator.Prepare().ok());
  const std::vector<Policy> policies = {Policy::kNoRule, Policy::kMetaRule,
                                        Policy::kEnergyPlanner};
  ThreadPool pool(4);
  const auto grid = simulator.RunGrid(policies, 2, &pool);
  ASSERT_TRUE(grid.ok());
  ASSERT_EQ(grid->size(), 3u);
  for (size_t p = 0; p < policies.size(); ++p) {
    const auto one = simulator.RunRepeated(policies[p], 2);
    ASSERT_TRUE(one.ok());
    EXPECT_EQ((*grid)[p].policy, one->policy);
    EXPECT_DOUBLE_EQ((*grid)[p].fce_pct.mean(), one->fce_pct.mean());
    EXPECT_DOUBLE_EQ((*grid)[p].fe_kwh.mean(), one->fe_kwh.mean());
    EXPECT_DOUBLE_EQ((*grid)[p].co2_kg.mean(), one->co2_kg.mean());
  }
}

// The pool catches a cell that throws and leaves its slot empty; the grid
// must then fail the same way at every executor count, never aggregate
// the empty slot.
TEST(SimulatorTest, ThrowingCellFailsGridAtEveryWorkerCount) {
  SimulationOptions options = TightFlat();
  options.hours = 7 * 24;
  options.chain_setup = [](firewall::Chain*) {
    throw std::runtime_error("injected");
  };
  Simulator simulator(options);
  ASSERT_TRUE(simulator.Prepare().ok());
  for (int workers : {1, 4}) {
    ThreadPool pool(workers);
    const auto grid = simulator.RunGrid({Policy::kNoRule}, 4, &pool);
    ASSERT_FALSE(grid.ok()) << workers << " executors";
    EXPECT_EQ(grid.status().code(), StatusCode::kInternal);
    EXPECT_NE(grid.status().message().find("grid cell 0 (NR, rep 0)"),
              std::string::npos)
        << grid.status().ToString();
  }
}

// The caller's pool is the grid's only source of threads, so repeated
// grids add no flight-recorder rings beyond the pool's own helpers.
TEST(SimulatorTest, RepeatedGridsOnOnePoolAddNoRings) {
  SimulationOptions options = TightFlat();
  options.hours = 2 * 24;
  Simulator simulator(options);
  ASSERT_TRUE(simulator.Prepare().ok());
  const std::vector<Policy> policies = {Policy::kNoRule, Policy::kMetaRule};
  // A serial grid first, so the calling thread's own ring already exists.
  ASSERT_TRUE(simulator.RunGrid(policies, 1).ok());
  const size_t before = obs::FlightRecorder::Default().ring_count();
  ThreadPool pool(4);
  for (int call = 0; call < 50; ++call) {
    ASSERT_TRUE(simulator.RunGrid(policies, 4, &pool).ok());
  }
  EXPECT_LE(obs::FlightRecorder::Default().ring_count(), before + 3);
}

TEST(SimulatorTest, VariedDatasetsHaveConflictsUnderMr) {
  // House MRT variation can shift same-device windows into overlap; MR
  // still reports ~zero error because losers measure against winners.
  SimulationOptions options;
  options.spec = trace::HouseSpec();
  options.start = FromCivil(2014, 6, 1);
  options.hours = 14 * 24;
  Simulator simulator(options);
  ASSERT_TRUE(simulator.Prepare().ok());
  const auto report = simulator.Run(Policy::kMetaRule);
  ASSERT_TRUE(report.ok());
  EXPECT_LT(report->fce_pct, 2.0);
}


TEST(SimulatorTest, NecessityRulesAlwaysExecute) {
  // A necessity rule ("should always be executed regardless of whether the
  // long-term target is met") consumes energy even under No-Rule and under
  // a zero-headroom budget.
  SimulationOptions options = TightFlat();
  options.hours = 7 * 24;
  Simulator simulator(options);
  ASSERT_TRUE(simulator.Prepare().ok());
  const auto nr_without = simulator.Run(Policy::kNoRule);
  ASSERT_TRUE(nr_without.ok());
  EXPECT_DOUBLE_EQ(nr_without->fe_kwh, 0.0);

  // Same window, MRT extended with a necessity heat rule via the spec's
  // variation path is not possible; use a custom simulator instead.
  // (Necessity rules enter through user tables, e.g. the prototype's.)
  rules::MetaRuleTable mrt;
  rules::MetaRule freezer;
  freezer.description = "Server Closet Cooling";
  freezer.window = TimeWindow{0, 1440};
  freezer.action = rules::RuleAction::kSetTemperature;
  freezer.value = 18.0;
  freezer.necessity = true;
  ASSERT_TRUE(mrt.Add(freezer).ok());
  EXPECT_EQ(mrt.convenience_count(), 0u);
  ASSERT_EQ(mrt.necessity_ids().size(), 1u);
  EXPECT_EQ(mrt.NecessityActiveAt(FromCivil(2014, 1, 1, 12)).size(), 1u);
}

TEST(SimulatorTest, ModeratelyCoarseSlotsStayWithinBudget) {
  // Algorithm 1's granularity input t: a 6-hour slot makes one adopt/drop
  // decision per span, priced at the span's mean conditions. Execution and
  // accounting stay hourly against ground truth, so the error is
  // comparable and the budget still holds.
  SimulationOptions hourly = TightFlat();
  SimulationOptions coarse_options = TightFlat();
  coarse_options.slot_hours = 6;
  Simulator sim_hourly(hourly), sim_coarse(coarse_options);
  ASSERT_TRUE(sim_hourly.Prepare().ok());
  ASSERT_TRUE(sim_coarse.Prepare().ok());
  const auto fine = sim_hourly.Run(Policy::kEnergyPlanner);
  const auto coarse = sim_coarse.Run(Policy::kEnergyPlanner);
  ASSERT_TRUE(fine.ok());
  ASSERT_TRUE(coarse.ok());
  // Same activation accounting on both paths (hourly ground truth).
  EXPECT_EQ(fine->activations, coarse->activations);
  // Mean-ambient pricing carries a small residual estimation error, so
  // under a very tight budget the coarse plan may overshoot slightly.
  EXPECT_LE(coarse->fe_kwh, 1.05 * sim_coarse.total_budget_kwh());
  EXPECT_NEAR(coarse->fe_kwh, fine->fe_kwh, fine->fe_kwh * 0.25);
  EXPECT_NEAR(coarse->fce_pct, fine->fce_pct, 4.0);
}

TEST(SimulatorTest, DailySlotsMispriceThresholdDevices) {
  // With 24-hour slots the mean-ambient estimate hides the deadband: gaps
  // that straddle the threshold look free, the planner adopts everything,
  // and real execution overshoots the budget — the finding that justifies
  // the paper's hourly slot choice.
  SimulationOptions hourly = TightFlat();
  SimulationOptions daily = TightFlat();
  daily.slot_hours = 24;
  Simulator sim_hourly(hourly), sim_daily(daily);
  ASSERT_TRUE(sim_hourly.Prepare().ok());
  ASSERT_TRUE(sim_daily.Prepare().ok());
  const auto fine = sim_hourly.Run(Policy::kEnergyPlanner);
  const auto coarse = sim_daily.Run(Policy::kEnergyPlanner);
  ASSERT_TRUE(fine.ok());
  ASSERT_TRUE(coarse.ok());
  EXPECT_GT(coarse->fe_kwh, fine->fe_kwh);
  EXPECT_FALSE(coarse->within_budget);
}

TEST(SimulatorTest, PolicyNames) {
  EXPECT_STREQ(PolicyName(Policy::kNoRule), "NR");
  EXPECT_STREQ(PolicyName(Policy::kIfttt), "IFTTT");
  EXPECT_STREQ(PolicyName(Policy::kEnergyPlanner), "EP");
  EXPECT_STREQ(PolicyName(Policy::kMetaRule), "MR");
  EXPECT_STREQ(PolicyName(Policy::kAnnealer), "SA");
}

TEST(SimulatorTest, InvalidSpecRejected) {
  SimulationOptions options = TightFlat();
  options.spec.units = 0;
  Simulator simulator(options);
  EXPECT_TRUE(simulator.Prepare().IsInvalidArgument());
}

}  // namespace
}  // namespace sim
}  // namespace imcf
