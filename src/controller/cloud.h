// Cloud Meta-Controller (CMC): community-level budget coordination.
//
// The paper's future work (§V) names two extensions this module provides:
// "multiple energy planners with conflicting interests" and "IMCF-Cloud
// extensions that will enable IMCF to operate as a CMC controller in the
// cloud". A CloudMetaController fronts several households, each running its
// own Local Controller and Energy Planner, that share one community energy
// budget (a shared PV plant, or a feeder/transformer allotment). The CMC
// decides each household's allocation; each household then plans within its
// share exactly as in the single-home system.
//
// Households live in a serve::TenantRegistry, not in the controller: the
// CMC either owns a private registry (the standalone/batch path) or borrows
// the fleet service's registry and coordinates tenants the service already
// admitted (CloudOptions::registry + Adopt). Either way all per-household
// state — simulator, budget ledger, firewall — hangs off the tenant, and
// the CMC holds only the community roster and its demand-forecast cache.
//
// Allocation policies:
//   * kEqualShare          — budget / N, the naive baseline.
//   * kDemandProportional  — shares proportional to each household's
//                            greedy (Meta-Rule) demand forecast.
//   * kUtilitarian         — starts from demand-proportional shares and
//                            iteratively moves budget from the household
//                            with the lowest marginal convenience loss to
//                            the one with the highest marginal gain
//                            (measured by probe simulations), approximating
//                            the community-optimal split.

#ifndef IMCF_CONTROLLER_CLOUD_H_
#define IMCF_CONTROLLER_CLOUD_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "fault/retry.h"
#include "serve/tenant_registry.h"
#include "sim/simulation.h"

namespace imcf {
namespace controller {

/// How the CMC splits the community budget.
enum class AllocationPolicy {
  kEqualShare,
  kDemandProportional,
  kUtilitarian,
};

const char* AllocationPolicyName(AllocationPolicy policy);

/// CMC configuration.
struct CloudOptions {
  double community_budget_kwh = 0.0;  ///< shared pool for the period
  SimTime start = 0;                  ///< 0: paper evaluation start
  int hours = 0;                      ///< 0: one year
  AllocationPolicy policy = AllocationPolicy::kDemandProportional;
  /// Utilitarian refinement rounds (each runs one probe pair per
  /// household).
  int utilitarian_rounds = 3;
  /// Fraction of a household's share moved per utilitarian transfer.
  double transfer_fraction = 0.15;
  /// Fault injection: "cmc:<household>" channels gate the CMC's probe
  /// simulations (an unreachable Local Controller degrades the allocation
  /// instead of failing it); the options also propagate into each
  /// household's simulator. Disabled by default.
  fault::FaultOptions fault;
  /// Retry/backoff for CMC probes (and the household command buses).
  fault::RetryPolicy retry;
  uint64_t seed = 99;
  /// Borrowed tenant registry (must outlive the controller). Null: the CMC
  /// owns a private registry built from `fault`/`retry`. When borrowing,
  /// the registry's own fault/retry options govern admitted tenants.
  serve::TenantRegistry* registry = nullptr;
  /// Cost ledger attached to an owned registry, so standalone CMC runs get
  /// per-household attribution too (WithTenant is the chokepoint). Ignored
  /// when `registry` is borrowed — the borrowed registry keeps its own
  /// ledger. Must outlive the controller.
  obs::CostLedger* cost_ledger = nullptr;
};

/// Per-household outcome.
struct HouseholdReport {
  std::string name;
  double allocation_kwh = 0.0;
  double demand_kwh = 0.0;  ///< greedy (MR) forecast used for shares
  double fce_pct = 0.0;
  double fe_kwh = 0.0;
};

/// Community outcome.
struct CloudReport {
  std::string policy;
  double total_fe_kwh = 0.0;
  double community_budget_kwh = 0.0;
  bool within_budget = false;
  double mean_fce_pct = 0.0;      ///< community convenience error
  double fairness_stddev = 0.0;   ///< spread of per-household F_CE
  /// Probe operations that stayed unreachable after retries.
  int64_t probe_failures = 0;
  /// Demand forecasts degraded to the household's configured cap.
  int64_t demand_fallbacks = 0;
  std::vector<HouseholdReport> households;
};

/// The coordinator.
class CloudMetaController {
 public:
  explicit CloudMetaController(CloudOptions options);
  ~CloudMetaController();

  CloudMetaController(const CloudMetaController&) = delete;
  CloudMetaController& operator=(const CloudMetaController&) = delete;

  /// Registers one household: admits it into the registry (spec wins for
  /// simulator construction) and adds it to the community roster. Names
  /// must be unique across the registry.
  Status AddHousehold(std::string name, trace::DatasetSpec spec);

  /// Adds an already-admitted registry tenant to the community roster —
  /// the borrowed-registry path, where the fleet service admits tenants
  /// and the CMC coordinates their shared budget.
  Status Adopt(const std::string& name);

  /// Allocates the community budget per the policy and runs every
  /// household's planner within its share.
  Result<CloudReport> Run();

  size_t household_count() const { return names_.size(); }

  serve::TenantRegistry& registry() { return *registry_; }

 private:
  /// MR-demand forecasts for every household (cached).
  Status ForecastDemands();

  /// Computes allocations for the configured policy.
  Result<std::vector<double>> Allocate();

  /// Runs one household's EP at the given allocation.
  Result<sim::SimulationReport> RunHousehold(const std::string& name,
                                             double allocation_kwh);

  /// Whether the CMC can reach `name`'s Local Controller for a probe at
  /// `probe_time`, after retries under the configured policy. Always true
  /// when fault injection is disabled.
  bool ProbeAvailable(const std::string& name, SimTime probe_time);

  CloudOptions options_;
  fault::FaultPlan fault_plan_;
  SimTime probe_base_ = 0;
  int64_t probe_attempts_ = 0;
  int64_t probe_failures_ = 0;
  int64_t demand_fallbacks_ = 0;
  std::unique_ptr<serve::TenantRegistry> owned_registry_;  // null if borrowed
  serve::TenantRegistry* registry_ = nullptr;
  std::vector<std::string> names_;  ///< community roster, insertion order
  std::map<std::string, double> demand_kwh_;  ///< MR forecast cache
};

/// A small community of `n` flats with varied rule tables and ambient
/// seeds — households genuinely conflict over the shared pool.
Result<std::unique_ptr<CloudMetaController>> DefaultNeighborhood(
    int n, double community_budget_kwh, CloudOptions options = {});

}  // namespace controller
}  // namespace imcf

#endif  // IMCF_CONTROLLER_CLOUD_H_
