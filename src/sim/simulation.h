// Trace-driven simulation engine.
//
// "We have adopted a trace-driven experimental methodology in which real
// datasets are fed into our simulator" (§III-A). The Simulator binds one
// dataset's ambient series, weather, device models, rule tables, the
// amortization plan, a planning policy and the meta-control firewall, runs
// the hourly slot loop over the evaluation period and reports the paper's
// three metrics:
//
//   F_CE — convenience error, % (average normalised error per activation)
//   F_E  — energy consumption, kWh (all actuations that pass the firewall)
//   F_T  — CPU time, seconds (the planning/evaluation work per policy)
//
// Every policy (NR / MR / IFTTT / EP / SA) runs through the *same* command
// pipeline: rules emit ActuationCommands, the firewall applies the slot
// plan, and accepted commands actuate devices and charge the budget ledger.

#ifndef IMCF_SIM_SIMULATION_H_
#define IMCF_SIM_SIMULATION_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "core/annealer.h"
#include "core/baselines.h"
#include "core/genetic.h"
#include "core/hill_climber.h"
#include "core/plan_arena.h"
#include "energy/amortization.h"
#include "energy/budget.h"
#include "energy/carbon.h"
#include "fault/fault_plan.h"
#include "fault/retry.h"
#include "firewall/imcf_firewall.h"
#include "rules/meta_rule.h"
#include "rules/trigger_rule.h"
#include "trace/dataset.h"

namespace imcf {
namespace sim {

/// Planning policy under evaluation (the algorithms of §III-A).
enum class Policy {
  kNoRule,
  kIfttt,
  kEnergyPlanner,
  kMetaRule,
  kAnnealer,
  kGenetic,
};

const char* PolicyName(Policy policy);

/// Simulation configuration.
struct SimulationOptions {
  trace::DatasetSpec spec;          ///< dataset under test
  SimTime start = 0;                ///< 0 selects the paper's 3-year period
  int hours = 0;                    ///< 0 selects the full period
  /// Planning-slot width in hours (Algorithm 1's time granularity t:
  /// "hourly, daily, monthly, yearly preference"). Coarser slots plan a
  /// whole span at once from its midpoint conditions — cheaper but less
  /// accurate (bench_ablation_granularity).
  int slot_hours = 1;
  double budget_kwh = 0.0;          ///< 0 selects the Table II budget
  double savings_fraction = 0.0;    ///< Fig. 9 knob: budget *= (1 - s)
  energy::AmortizationKind amortization = energy::AmortizationKind::kEaf;
  double balloon_fraction = 0.30;   ///< BLAF π
  std::vector<int> balloon_months = {4, 5, 6, 7, 8, 9, 10};
  core::EpOptions ep;               ///< EP parameters (Figs. 7/8)
  core::SaOptions sa;               ///< SA parameters (ablation)
  core::GaOptions ga;               ///< GA parameters (ablation)
  /// How conflicting IFTTT recipes are arbitrated. Last-match models all
  /// applets firing in table order with later writers winning — the
  /// energy-oblivious behaviour the paper's baseline captures.
  rules::MatchPolicy ifttt_policy = rules::MatchPolicy::kLastMatch;
  /// Extra IFTTT recipes appended after the stock Table III rows (the
  /// fleet's MRT-update path installs tenant-submitted recipes here; the
  /// conflict pass vets them before a simulator is built).
  std::vector<rules::TriggerRule> ifttt_extra;
  /// Bank unused slot budget for later slots (net metering: "energy excess
  /// on a sunny day can be used at later stages within a yearly cycle").
  /// Without banking, a flat hourly constraint can never fund the night
  /// heating peak — bench_ablation_amortization quantifies the effect.
  bool carryover = true;
  /// Bank depth in multiples of the hourly budget (0 = unbounded). A
  /// bounded bank models net-metering settlement windows and keeps the
  /// planner from riding the budget ceiling all year.
  double carryover_cap_hours = 48.0;
  /// Carbon-aware budget tilt strength in [0, 1]: 0 disables; larger
  /// values shift each day's budget toward clean-grid hours at the same
  /// total (§V future work; bench_ablation_carbon).
  double carbon_alpha = 0.0;
  /// Grid mix for CO2 accounting (always reported) and for the tilt.
  energy::CarbonProfileOptions carbon;
  /// Fault injection on the command/weather path. Disabled by default, in
  /// which case the run is bit-identical to a build without the fault
  /// layer (no bus is constructed, no plan is consulted).
  fault::FaultOptions fault;
  /// Retry/backoff policy the command bus applies when faults are enabled.
  fault::RetryPolicy retry;
  /// Test seam: invoked on each run's firewall admin chain before the slot
  /// loop (e.g. to install deny rules for accounting tests).
  std::function<void(firewall::Chain*)> chain_setup;
  uint64_t seed = 1;                ///< master seed (MRT variation, planner)
};

/// Results of one simulation run.
struct SimulationReport {
  std::string dataset;
  std::string policy;
  double fce_pct = 0.0;       ///< F_CE
  double fe_kwh = 0.0;        ///< F_E
  double ft_seconds = 0.0;    ///< F_T
  double budget_kwh = 0.0;    ///< enforced total budget
  bool within_budget = false; ///< F_E <= budget
  int64_t slots = 0;
  int64_t activations = 0;    ///< rule-slot activations measured
  int64_t commands_issued = 0;
  int64_t commands_dropped = 0;
  /// Commands the plan accepted but the bus could not deliver
  /// (DecisionReason::kDeviceUnavailable); subset of commands_dropped.
  int64_t commands_failed = 0;
  double mean_adopted_fraction = 0.0;  ///< avg share of active rules adopted
  double co2_kg = 0.0;  ///< grid CO2 footprint of the consumed energy
};

/// Mean ± stddev over repetitions of one (policy, dataset) cell.
struct RepeatedReport {
  std::string dataset;
  std::string policy;
  RunningStat fce_pct;
  RunningStat fe_kwh;
  RunningStat ft_seconds;
  RunningStat co2_kg;
};

/// The simulator. Construct, Prepare() once (builds the ambient series —
/// the expensive part), then Run() any number of policies/repetitions
/// against the shared series.
class Simulator {
 public:
  explicit Simulator(SimulationOptions options);

  /// Materialises ambient series, rule tables, devices and the
  /// amortization plan.
  Status Prepare();

  /// Runs one policy once. `rep` seeds the per-repetition random streams.
  /// Every slot's evaluator refills one arena, so its columns keep their
  /// capacity across the run. Null uses a run-local arena; the wire
  /// benchmark lends one to time a warm arena against a cold one (the
  /// parameter stays until that benchmark changes; see core/plan_arena.h).
  Result<SimulationReport> Run(Policy policy, int rep = 0,
                               core::PlanArena* arena = nullptr) const;

  /// Runs `repetitions` independent runs (the paper uses ten). Repetitions
  /// fan out across `pool`'s executors (null runs them on the calling
  /// thread); per-repetition seeding makes the aggregate bit-identical for
  /// every executor count.
  Result<RepeatedReport> RunRepeated(Policy policy, int repetitions,
                                     ThreadPool* pool = nullptr) const;

  /// Runs every (policy, repetition) cell of `policies`, fanning the whole
  /// grid out across `pool`'s executors (null runs it on the calling
  /// thread). Returns one RepeatedReport per policy, in the order given.
  /// Equivalent to calling RunRepeated per policy; the flat grid keeps all
  /// cores busy when some policies are much cheaper than others. A cell
  /// that throws fails the grid with Status::Internal naming the cell.
  Result<std::vector<RepeatedReport>> RunGrid(
      const std::vector<Policy>& policies, int repetitions,
      ThreadPool* pool = nullptr) const;

  /// Re-tunes the EP/SA parameters between runs (Figs. 7/8 sweeps reuse
  /// one prepared simulator).
  void set_ep_options(const core::EpOptions& ep) { options_.ep = ep; }
  void set_sa_options(const core::SaOptions& sa) { options_.sa = sa; }

  /// Re-derives the budget and amortization plan (Fig. 9 sweep / A1
  /// ablation) without rebuilding the ambient series.
  Status Reconfigure(double savings_fraction,
                     energy::AmortizationKind amortization);

  /// Replaces the total budget (cloud allocation) without rebuilding the
  /// ambient series.
  Status SetBudget(double budget_kwh);

  /// Environment snapshot for one unit at instant `t` (clean weather, no
  /// fault degradation): what a context query observes before the serving
  /// layer applies the tenant's dataflow policy. Requires Prepare(); `t` is
  /// clamped to the simulation span for the ambient series lookup.
  Result<rules::EvaluationContext> ContextAt(SimTime t, int unit) const;

  const rules::MetaRuleTable& mrt() const { return mrt_; }
  const rules::TriggerRuleTable& ifttt() const { return ifttt_; }
  const trace::HourlyAmbient& ambient() const { return *ambient_; }
  const devices::DeviceRegistry& registry() const { return registry_; }
  const energy::AmortizationPlan& amortization() const { return *plan_; }
  double total_budget_kwh() const { return total_budget_; }
  const SimulationOptions& options() const { return options_; }

 private:
  SimulationOptions options_;
  bool prepared_ = false;
  rules::MetaRuleTable mrt_;
  rules::TriggerRuleTable ifttt_;
  devices::DeviceRegistry registry_;
  devices::UnitEnergyModels unit_models_;
  std::unique_ptr<trace::HourlyAmbient> ambient_;
  std::unique_ptr<weather::SyntheticWeather> weather_;
  std::vector<trace::AmbientModel> unit_ambient_models_;
  std::unique_ptr<energy::AmortizationPlan> plan_;
  double total_budget_ = 0.0;
  SimTime start_ = 0;
  int hours_ = 0;
  /// Per-unit device ids, precomputed so the hot loop avoids registry
  /// scans: hvac_ids_[u] / light_ids_[u].
  std::vector<devices::DeviceId> hvac_ids_;
  std::vector<devices::DeviceId> light_ids_;

  Status RebuildPlan();
};

}  // namespace sim
}  // namespace imcf

#endif  // IMCF_SIM_SIMULATION_H_
