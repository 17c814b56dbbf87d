// Micro-benchmarks (google-benchmark): throughput of the hot components —
// slot evaluation, k-flip delta evaluation, per-slot planning at several
// rule-table sizes, firewall filtering, trace generation and the weather /
// ambient models. These back the F_T claims of Fig. 6 with component-level
// numbers. BM_TracedSpan prices the one timing primitive itself,
// BM_SimRun one whole faulted dorms plan, and BM_AdmitTenant one tenant
// admission.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/baselines.h"
#include "core/evaluator.h"
#include "core/hill_climber.h"
#include "fault/command_bus.h"
#include "firewall/imcf_firewall.h"
#include "obs/accounting/cost_ledger.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "serve/tenant_registry.h"
#include "sim/simulation.h"
#include "trace/dataset.h"
#include "trace/generator.h"
#include "weather/weather.h"

namespace imcf {
namespace {

using devices::CommandType;

// Builds a slot problem with n rules spread over n/2 device groups.
core::SlotProblem MakeProblem(int n_rules, double budget_per_rule) {
  core::SlotProblem problem;
  problem.n_rules = n_rules;
  problem.budget_kwh = budget_per_rule * n_rules;
  Rng rng(42);
  const int n_groups = std::max(1, n_rules / 2);
  for (int g = 0; g < n_groups; ++g) {
    core::DeviceGroup group;
    group.type = (g % 2 == 0) ? CommandType::kSetTemperature
                              : CommandType::kSetLight;
    group.ambient = group.type == CommandType::kSetTemperature ? 15.0 : 10.0;
    problem.groups.push_back(group);
  }
  for (int i = 0; i < n_rules; ++i) {
    core::ActiveRule rule;
    rule.rule_index = i;
    rule.group = i % n_groups;
    rule.type = problem.groups[static_cast<size_t>(rule.group)].type;
    rule.desired = rule.type == CommandType::kSetTemperature ? 23.0 : 40.0;
    rule.energy_kwh = rng.UniformDouble(0.05, 0.5);
    rule.drop_error = rng.UniformDouble(0.1, 1.0);
    problem.active.push_back(rule);
  }
  return problem;
}

void BM_SlotEvaluateFull(benchmark::State& state) {
  const core::SlotProblem problem =
      MakeProblem(static_cast<int>(state.range(0)), 0.2);
  const core::SlotEvaluator evaluator(&problem);
  Rng rng(1);
  core::Solution s = core::Solution::Init(
      static_cast<size_t>(problem.n_rules), core::InitStrategy::kRandom,
      &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.Evaluate(s));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(problem.active.size()));
}
BENCHMARK(BM_SlotEvaluateFull)->Arg(6)->Arg(24)->Arg(120)->Arg(600);

void BM_SlotEvaluateDelta(benchmark::State& state) {
  const core::SlotProblem problem =
      MakeProblem(static_cast<int>(state.range(0)), 0.2);
  const core::SlotEvaluator evaluator(&problem);
  Rng rng(1);
  core::Solution s = core::Solution::Init(
      static_cast<size_t>(problem.n_rules), core::InitStrategy::kRandom,
      &rng);
  const core::Objectives base = evaluator.Evaluate(s);
  core::FlipBuffer flips;
  for (auto _ : state) {
    core::SampleDistinct(problem.n_rules, 4, &rng, &flips);
    benchmark::DoNotOptimize(evaluator.EvaluateWithFlips(s, base, flips));
  }
}
BENCHMARK(BM_SlotEvaluateDelta)->Arg(6)->Arg(24)->Arg(120)->Arg(600);

// The acceptance benchmark for the incremental evaluator: steady-state
// hill-climbing delta evaluation with accepted moves committed through
// ApplyFlips, so "before" contributions stay on the O(1) cached path.
void BM_EvaluateWithFlipsCached(benchmark::State& state) {
  const core::SlotProblem problem =
      MakeProblem(static_cast<int>(state.range(0)), 0.2);
  const core::SlotEvaluator evaluator(&problem);
  Rng rng(1);
  core::Solution s = core::Solution::Init(
      static_cast<size_t>(problem.n_rules), core::InitStrategy::kRandom,
      &rng);
  core::Objectives base = evaluator.Evaluate(s);
  core::FlipBuffer flips;
  for (auto _ : state) {
    core::SampleDistinct(problem.n_rules, 4, &rng, &flips);
    const core::Objectives candidate =
        evaluator.EvaluateWithFlips(s, base, flips);
    benchmark::DoNotOptimize(candidate);
    if (rng.Bernoulli(0.5)) {  // accept: commit and keep the cache in sync
      evaluator.ApplyFlips(&s, flips);
      base = candidate;
    }
  }
}
BENCHMARK(BM_EvaluateWithFlipsCached)->Arg(6)->Arg(24)->Arg(120)->Arg(600);

void BM_PlanSlotHillClimbing(benchmark::State& state) {
  const core::SlotProblem problem =
      MakeProblem(static_cast<int>(state.range(0)), 0.1);  // tight budget
  const core::SlotEvaluator evaluator(&problem);
  core::HillClimbingPlanner planner;
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.PlanSlot(evaluator, &rng));
  }
}
BENCHMARK(BM_PlanSlotHillClimbing)->Arg(6)->Arg(24)->Arg(64)->Arg(120)->Arg(600);

// Alias with the historical name used by the perf acceptance criteria:
// BM_PlanSlot/64 is one EP slot plan on a 64-rule table.
void BM_PlanSlot(benchmark::State& state) { BM_PlanSlotHillClimbing(state); }
BENCHMARK(BM_PlanSlot)->Arg(64);

// Parallel planning substrate: a pool of `state.range(0)` executors plans 64
// independent 64-rule slot problems per iteration (one evaluator per task —
// the evaluator's incremental cache is thread-local by construction). Near-
// linear wall-clock scaling up to the core count is the acceptance target;
// per-task MixHash seeding keeps every task's plan identical across thread
// counts.
void BM_PlanSlotParallel(benchmark::State& state) {
  constexpr int kTasks = 64;
  constexpr uint64_t kSeed = 7;
  std::vector<core::SlotProblem> problems;
  problems.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) problems.push_back(MakeProblem(64, 0.1));
  ThreadPool pool(static_cast<int>(state.range(0)));
  core::HillClimbingPlanner planner;
  std::vector<double> errors(kTasks, 0.0);
  for (auto _ : state) {
    pool.ParallelFor(kTasks, [&problems, &planner, &errors](int i) {
      const core::SlotEvaluator evaluator(&problems[static_cast<size_t>(i)]);
      Rng rng(MixHash(kSeed, static_cast<uint64_t>(i)));
      errors[static_cast<size_t>(i)] =
          planner.PlanSlot(evaluator, &rng).objectives.error_sum;
    });
    benchmark::DoNotOptimize(errors.data());
  }
  state.SetItemsProcessed(state.iterations() * kTasks);
}
BENCHMARK(BM_PlanSlotParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

void BM_FirewallFilter(benchmark::State& state) {
  devices::DeviceRegistry registry;
  const auto ac =
      *registry.Add("ac", devices::DeviceKind::kHvac, 0, "10.0.0.1");
  firewall::MetaControlFirewall fw(&registry);
  fw.SetDroppedRules(std::vector<int>{1, 3, 5});
  devices::ActuationCommand cmd;
  cmd.device = ac;
  cmd.type = devices::CommandType::kSetTemperature;
  cmd.value = 23.0;
  cmd.source = "mrt";
  int rule = 0;
  for (auto _ : state) {
    cmd.rule_id = rule++ % 6;
    benchmark::DoNotOptimize(fw.Filter(cmd));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FirewallFilter);

// The fleet's per-command path: Filter, then fault-aware delivery on the
// wire benchmark's fault plan (seed 7, 20% transient errors per attempt)
// to a dorms registry's 200 devices, one command per device per hour.
void BM_FirewallFilterFaulted(benchmark::State& state) {
  const trace::DatasetSpec spec = trace::DormsSpec();
  devices::DeviceRegistry registry;
  for (int u = 0; u < spec.units; ++u) {
    (void)registry.Add(StrFormat("unit%02d_ac", u),
                       devices::DeviceKind::kHvac, u,
                       StrFormat("10.0.%d.1", u));
    (void)registry.Add(StrFormat("unit%02d_light", u),
                       devices::DeviceKind::kLight, u,
                       StrFormat("10.0.%d.2", u));
  }
  fault::FaultOptions options;
  options.enabled = true;
  options.seed = 7;
  options.device.transient_error_prob = 0.2;
  const fault::FaultPlan plan(options);
  fault::CommandBus bus(&plan, fault::RetryPolicy{}, &registry);
  firewall::MetaControlFirewall fw(&registry);
  fw.set_command_bus(&bus);
  fw.SetDroppedRules(std::vector<int>{1, 3, 5});
  const auto n_devices = static_cast<devices::DeviceId>(registry.size());
  devices::ActuationCommand cmd;
  cmd.type = devices::CommandType::kSetTemperature;
  cmd.value = 23.0;
  cmd.source = "mrt";
  int64_t i = 0;
  for (auto _ : state) {
    cmd.device = static_cast<devices::DeviceId>(i % n_devices);
    cmd.rule_id = static_cast<int>(i % 6);
    cmd.time = FromCivil(2015, 1, 1) + (i / n_devices) * kSecondsPerHour;
    benchmark::DoNotOptimize(fw.Filter(cmd));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FirewallFilterFaulted)->Name("BM_FirewallFilter/faulted");

// One 24-hour EP run of the wire benchmark's dorms tenant config (dataset
// dorms, seed 4) under its fault plan (seed 7, 20% transient errors per
// attempt), inside a recorded root span as a fleet plan runs. Repetitions
// cycle through 1000 seeds; Prepare is outside the timed loop.
void BM_SimRunDormsFaulted(benchmark::State& state) {
  serve::TenantConfig config;
  config.id = "dorms4";
  config.dataset = "dorms";
  config.seed = 4;
  sim::SimulationOptions options;
  options.spec = *serve::SpecForConfig(config);
  options.start = trace::EvaluationStart();
  options.hours = 24;
  options.seed = 4;
  options.fault.enabled = true;
  options.fault.seed = 7;
  options.fault.device.transient_error_prob = 0.2;
  sim::Simulator sim(options);
  if (!sim.Prepare().ok()) {
    state.SkipWithError("Prepare failed");
    return;
  }
  int rep = 0;
  for (auto _ : state) {
    obs::ScopedSpan root("bench.run", "bench",
                         obs::Tracer::Root(static_cast<uint64_t>(rep) + 1));
    benchmark::DoNotOptimize(sim.Run(sim::Policy::kEnergyPlanner, rep));
    rep = (rep + 1) % 1000;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimRunDormsFaulted)
    ->Name("BM_SimRun/dorms_faulted")
    ->Unit(benchmark::kMicrosecond);

void BM_WeatherSample(benchmark::State& state) {
  weather::SyntheticWeather weather;
  SimTime t = FromCivil(2015, 1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(weather.At(t));
    t += kSecondsPerHour;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WeatherSample);

void BM_TraceGenerationDay(benchmark::State& state) {
  trace::GeneratorOptions options;
  options.start = FromCivil(2014, 3, 1);
  options.end = FromCivil(2014, 3, 2);
  options.step_seconds = 60;
  options.units = 1;
  trace::CasasTraceGenerator gen(options);
  int64_t readings = 0;
  for (auto _ : state) {
    auto count = gen.Generate([](const trace::Reading&) {
      return Status::Ok();
    });
    readings += count.value_or(0);
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(readings);
}
BENCHMARK(BM_TraceGenerationDay);

// One week of a dataset's hourly ambient series: `flat` has one unit,
// `dorms` 100 units that share each hour's weather.
void BM_BuildHourlyAmbientWeek(benchmark::State& state,
                               trace::DatasetSpec (*make_spec)()) {
  const trace::DatasetSpec spec = make_spec();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        trace::BuildHourlyAmbient(spec, FromCivil(2014, 1, 1), 7 * 24));
  }
}
BENCHMARK_CAPTURE(BM_BuildHourlyAmbientWeek, flat, &trace::FlatSpec);
BENCHMARK_CAPTURE(BM_BuildHourlyAmbientWeek, dorms, &trace::DormsSpec);

// One tenant admission of the wire benchmark's config shape (a 24-hour
// planning window from the evaluation start): rule table, devices,
// ambient series, minute buckets, plan state and the conflict pass. The
// tenant is removed, untimed, before the next admission.
void BM_AdmitTenant(benchmark::State& state, const char* dataset) {
  serve::TenantRegistry registry;
  serve::TenantConfig config;
  config.id = std::string("home_") + dataset;
  config.dataset = dataset;
  config.seed = 4;
  config.hours = 24;
  for (auto _ : state) {
    const Status admitted = registry.Admit(config);
    state.PauseTiming();
    if (!admitted.ok() || !registry.Remove(config.id).ok()) {
      state.SkipWithError("admit/remove failed");
      break;
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_AdmitTenant, flat, "flat");
BENCHMARK_CAPTURE(BM_AdmitTenant, house, "house");
BENCHMARK_CAPTURE(BM_AdmitTenant, dorms, "dorms");

// One recorded span under a root context: Arg(0) with no sinks, Arg(1)
// with the planner step's sinks (histogram, F_T total, kPlan charge).
void BM_TracedSpan(benchmark::State& state) {
  obs::MetricRegistry registry;
  double ft_seconds = 0.0;
  obs::SpanSinks sinks;
  if (state.range(0) != 0) {
    sinks = {.wall_ns = registry.GetHistogram("imcf_bench_span_wall_ns", "",
                                              obs::LatencyBoundsNs()),
             .wall_seconds = &ft_seconds,
             .phase = obs::CostPhase::kPlan};
  }
  obs::CostLedger ledger(1);
  const std::string tenant = "bench";
  obs::ScopedCost cost(&ledger, 0, tenant);
  obs::ScopedSpan root("bench.root", "bench", obs::Tracer::Root(1));
  for (auto _ : state) {
    obs::ScopedSpan span("bench.span", "bench", sinks);
    benchmark::DoNotOptimize(span.context());
  }
}
BENCHMARK(BM_TracedSpan)->Arg(0)->Arg(1);

}  // namespace
}  // namespace imcf

BENCHMARK_MAIN();
