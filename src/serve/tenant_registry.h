// Sharded registry of fleet tenants (households) and their planning state.
//
// The ROADMAP's north star is one service fronting very many households;
// a single map under a single mutex would serialize every tenant touch, so
// the registry stripes tenants across N shards, each with its own mutex
// guarding only membership. Tenant *work* (planning, command delivery)
// synchronizes on a per-tenant mutex instead, so two tenants on the same
// shard plan concurrently and a long plan never blocks admission.
//
// A tenant bundles everything the single-home stack hangs off one
// household: the prepared Simulator (which owns the MRT, device registry,
// budget ledger, amortization plan and firewall for its runs), the
// TenantConfig that can rebuild it, and serving counters. Per-tenant
// snapshot persistence goes through the TableStore: Save() rewrites the
// `tenants` table, Load() re-admits every row, so a restarted service
// recovers its fleet (see DESIGN.md §10).

#ifndef IMCF_SERVE_TENANT_REGISTRY_H_
#define IMCF_SERVE_TENANT_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "fault/fault_plan.h"
#include "fault/retry.h"
#include "firewall/conflict/analyzer.h"
#include "obs/accounting/cost_ledger.h"
#include "serve/request.h"
#include "serve/tenant_table.h"
#include "sim/simulation.h"
#include "storage/table_store.h"

namespace imcf {
namespace serve {

/// Everything needed to (re)build one tenant's planning state. The config
/// is what the snapshot table persists, so it is deliberately flat: a base
/// dataset name plus the knobs the fleet entry points actually vary.
struct TenantConfig {
  TenantId id;
  std::string dataset = "flat";  ///< "flat" | "house" | "dorms"
  uint64_t seed = 1;             ///< MRT variation + planner streams
  double budget_kwh = 0.0;       ///< 0: the dataset's Table II budget
  SimTime start = 0;             ///< 0: the paper's evaluation start
  int hours = 0;                 ///< planning window (0: one year)
  int slot_hours = 1;            ///< Algorithm 1 granularity
  double mrt_variation = 0.0;    ///< 0: the dataset's default
  /// Device sizing multiplier (the DefaultNeighborhood "appetite"):
  /// scales HVAC kW/°C and light max power.
  double appetite = 1.0;
  /// Tenant-submitted IFTTT recipes appended after the stock Table III
  /// rows. Vetted by the conflict pass at admission and on every MRT
  /// update; NOT persisted in the snapshot table (a restarted fleet
  /// re-admits the stock rule set and tenants resubmit).
  std::vector<rules::TriggerRule> extra_recipes;
};

/// Serving counters, persisted with the config so a restarted service
/// resumes its bookkeeping where it left off.
struct TenantStats {
  int64_t plans_served = 0;
  int64_t commands_served = 0;
  int64_t queries_served = 0;
  int64_t deadline_expired = 0;
  double fe_kwh_total = 0.0;  ///< summed F_E over served plans

  friend bool operator==(const TenantStats&, const TenantStats&) = default;
};

/// Builds the DatasetSpec a config describes (base dataset + overrides).
Result<trace::DatasetSpec> SpecForConfig(const TenantConfig& config);

/// One registered household. Accessed only through
/// TenantRegistry::WithTenant, which holds the tenant's mutex.
class Tenant {
 public:
  Tenant(TenantConfig config, std::unique_ptr<sim::Simulator> simulator)
      : config_(std::move(config)), simulator_(std::move(simulator)) {}

  const TenantConfig& config() const { return config_; }
  sim::Simulator& simulator() { return *simulator_; }
  const sim::Simulator& simulator() const { return *simulator_; }
  TenantStats& stats() { return stats_; }
  const TenantStats& stats() const { return stats_; }

  /// The dataflow policy derived from the active rule set (PFirewall-style
  /// field redaction for context queries). Maintained by the registry on
  /// admission and on accepted MRT updates.
  const firewall::conflict::DataflowPolicy& dataflow_policy() const {
    return policy_;
  }

 private:
  friend class TenantRegistry;

  TenantConfig config_;
  std::unique_ptr<sim::Simulator> simulator_;
  TenantStats stats_;
  firewall::conflict::DataflowPolicy policy_;
  std::mutex mu_;  ///< serializes work on this tenant
};

/// Mutex-striped tenant directory.
class TenantRegistry {
 public:
  /// `shards` must be >= 1. Fault/retry options propagate into every
  /// admitted tenant's simulator (the fleet-wide fault schedule).
  explicit TenantRegistry(int shards = 8, fault::FaultOptions fault = {},
                          fault::RetryPolicy retry = {});

  TenantRegistry(const TenantRegistry&) = delete;
  TenantRegistry& operator=(const TenantRegistry&) = delete;

  /// Builds and prepares the tenant `config` describes; error if the id is
  /// taken or the config invalid. Preparing (building the ambient series)
  /// is the expensive step and runs outside all locks.
  Status Admit(const TenantConfig& config);

  /// Admits a tenant from an explicit spec (the CloudMetaController path,
  /// whose households carry hand-tuned specs). `config` is recorded for
  /// snapshots; `spec` wins for simulator construction.
  Status AdmitWithSpec(const TenantConfig& config, trace::DatasetSpec spec);

  /// Restores previously saved counters; tenant must exist.
  Status RestoreStats(const TenantId& id, const TenantStats& stats);

  Status Remove(const TenantId& id);

  bool Contains(const TenantId& id) const;
  size_t size() const;

  /// All tenant ids, sorted (the canonical fleet iteration order).
  std::vector<TenantId> TenantIds() const;

  /// Shard index of a tenant id (stable hash; exposed for queue striping).
  int ShardOf(const TenantId& id) const;
  int shards() const { return static_cast<int>(shards_.size()); }

  /// Runs `fn` with the tenant's mutex held. The shard lock is NOT held
  /// during `fn`, so long work on one tenant never blocks its shard.
  /// When a cost ledger is attached, `fn` runs inside a ScopedCost charging
  /// (ShardOf(id), id) — the chokepoint that attributes everything below
  /// (sim run, planner, evaluators) to the tenant, for every caller
  /// at once: the fleet drain and the cloud controller alike.
  Status WithTenant(const TenantId& id,
                    const std::function<Status(Tenant&)>& fn);

  /// Attaches the ledger WithTenant charges into (null detaches). Set once
  /// at service construction, before concurrent drains start.
  void set_cost_ledger(obs::CostLedger* ledger) { cost_ledger_ = ledger; }
  obs::CostLedger* cost_ledger() const { return cost_ledger_; }

  Result<TenantConfig> GetConfig(const TenantId& id) const;
  Result<TenantStats> GetStats(const TenantId& id) const;

  /// Rebuilds `tenant`'s rule set with the update's overrides, runs the
  /// conflict pass on the result and — only if it admits — swaps the new
  /// simulator in and refreshes the dataflow policy. On rejection the
  /// tenant keeps its current rule set, the verdict lands in `report`, and
  /// the returned status is FailedPrecondition. Caller must hold the
  /// tenant's mutex (i.e. call from inside WithTenant).
  Status ApplyMrtUpdate(Tenant& tenant, const MrtUpdateRequest& update,
                        firewall::conflict::ConflictReport* report);

  /// The admission-time conflict pass (also serves /conflictz).
  firewall::conflict::ConflictAnalyzer& conflict_analyzer() {
    return conflict_analyzer_;
  }
  const firewall::conflict::ConflictAnalyzer& conflict_analyzer() const {
    return conflict_analyzer_;
  }

  /// Rewrites the `tenants` snapshot table from the current fleet (config
  /// + stats per tenant, sorted by id).
  Status Save(TableStore* store) const;

  /// Re-admits every tenant recorded in the `tenants` table and restores
  /// its counters. Returns the number of tenants recovered.
  Result<int> Load(TableStore* store);

  const fault::FaultOptions& fault_options() const { return fault_; }
  const fault::RetryPolicy& retry_policy() const { return retry_; }

 private:
  struct Shard {
    mutable std::mutex mu;
    /// Open-addressing directory (see tenant_table.h): flat-array probing
    /// sized for fleets far beyond what a node-based map serves well.
    TenantTable tenants;
  };

  /// Looks up a tenant under its shard lock only.
  std::shared_ptr<Tenant> Find(const TenantId& id) const;

  Status AdmitPrepared(const TenantId& id, std::shared_ptr<Tenant> tenant);

  /// Builds the SimulationOptions a (config, spec) pair describes — shared
  /// by admission and the MRT-update rebuild so both paths stay identical.
  sim::SimulationOptions BuildSimOptions(const TenantConfig& config,
                                         trace::DatasetSpec spec) const;

  /// Runs the conflict pass over a prepared simulator's rule set.
  firewall::conflict::ConflictReport AnalyzeRuleSet(
      const TenantConfig& config, const trace::DatasetSpec& spec,
      const sim::Simulator& simulator);

  std::vector<std::unique_ptr<Shard>> shards_;
  fault::FaultOptions fault_;
  fault::RetryPolicy retry_;
  obs::CostLedger* cost_ledger_ = nullptr;  ///< borrowed; may be null
  firewall::conflict::ConflictAnalyzer conflict_analyzer_;
};

/// Schema of the snapshot table ("tenants").
TableSchema TenantSnapshotSchema();

}  // namespace serve
}  // namespace imcf

#endif  // IMCF_SERVE_TENANT_REGISTRY_H_
