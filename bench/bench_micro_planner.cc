// Micro-benchmarks (google-benchmark): throughput of the hot components —
// slot evaluation, k-flip delta evaluation, per-slot planning at several
// rule-table sizes, firewall filtering, trace generation and the weather /
// ambient models. These back the F_T claims of Fig. 6 with component-level
// numbers.

#include <benchmark/benchmark.h>

#include "common/thread_pool.h"
#include "core/baselines.h"
#include "core/evaluator.h"
#include "core/hill_climber.h"
#include "firewall/imcf_firewall.h"
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

// Parallel planning substrate: `state.range(0)` worker threads plan 64
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
  const int threads = static_cast<int>(state.range(0));
  ThreadPool pool(threads);
  core::HillClimbingPlanner planner;
  std::vector<double> errors(kTasks, 0.0);
  for (auto _ : state) {
    ParallelFor(threads > 1 ? &pool : nullptr, kTasks,
                [&problems, &planner, &errors](int i) {
                  const core::SlotEvaluator evaluator(
                      &problems[static_cast<size_t>(i)]);
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
  firewall::MetaControlFirewall fw(&registry, 64);
  fw.SetDroppedRules({1, 3, 5});
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

void BM_BuildHourlyAmbientWeek(benchmark::State& state) {
  const trace::DatasetSpec spec = trace::FlatSpec();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        trace::BuildHourlyAmbient(spec, FromCivil(2014, 1, 1), 7 * 24));
  }
}
BENCHMARK(BM_BuildHourlyAmbientWeek);

}  // namespace
}  // namespace imcf

BENCHMARK_MAIN();
