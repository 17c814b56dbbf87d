#include "serve/tenant_registry.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/strings.h"
#include "firewall/conflict/dataflow_policy.h"
#include "obs/tracer.h"

namespace imcf {
namespace serve {

const char* RequestKindName(RequestKind kind) {
  switch (kind) {
    case RequestKind::kPlan:
      return "plan";
    case RequestKind::kCommand:
      return "command";
    case RequestKind::kQuery:
      return "query";
    case RequestKind::kMrtUpdate:
      return "mrt_update";
  }
  return "?";
}

const char* ServeOutcomeName(ServeOutcome outcome) {
  switch (outcome) {
    case ServeOutcome::kOk:
      return "ok";
    case ServeOutcome::kShed:
      return "shed";
    case ServeOutcome::kDeadlineExceeded:
      return "deadline_exceeded";
    case ServeOutcome::kTenantNotFound:
      return "tenant_not_found";
    case ServeOutcome::kError:
      return "error";
    case ServeOutcome::kConflictRejected:
      return "conflict_rejected";
  }
  return "?";
}

Result<trace::DatasetSpec> SpecForConfig(const TenantConfig& config) {
  if (config.id.empty()) {
    return Status::InvalidArgument("tenant id must not be empty");
  }
  trace::DatasetSpec spec;
  if (config.dataset == "flat") {
    spec = trace::FlatSpec();
  } else if (config.dataset == "house") {
    spec = trace::HouseSpec();
  } else if (config.dataset == "dorms") {
    spec = trace::DormsSpec();
  } else {
    return Status::InvalidArgument("unknown tenant dataset: " +
                                   config.dataset);
  }
  if (!(config.appetite > 0.0) || !std::isfinite(config.appetite)) {
    return Status::InvalidArgument("tenant appetite must be positive");
  }
  spec.name = config.id;
  spec.seed = config.seed;
  if (config.mrt_variation > 0.0) spec.mrt_variation = config.mrt_variation;
  spec.hvac.kw_per_degree *= config.appetite;
  spec.light.max_power_kw *= config.appetite;
  return spec;
}

TenantRegistry::TenantRegistry(int shards, fault::FaultOptions fault,
                               fault::RetryPolicy retry)
    : fault_(fault),
      retry_(retry),
      conflict_analyzer_(shards < 1 ? 1 : shards) {
  if (shards < 1) shards = 1;
  shards_.reserve(static_cast<size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

int TenantRegistry::ShardOf(const TenantId& id) const {
  // ChannelHash is the repo's stable string hash (same value on every
  // platform/run), so shard placement is part of the determinism contract.
  return static_cast<int>(ChannelHash(id) %
                          static_cast<uint64_t>(shards_.size()));
}

std::shared_ptr<Tenant> TenantRegistry::Find(const TenantId& id) const {
  const Shard& shard = *shards_[static_cast<size_t>(ShardOf(id))];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.tenants.Find(id);
}

Status TenantRegistry::AdmitPrepared(const TenantId& id,
                                     std::shared_ptr<Tenant> tenant) {
  Shard& shard = *shards_[static_cast<size_t>(ShardOf(id))];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (!shard.tenants.Insert(id, std::move(tenant))) {
    return Status::AlreadyExists("tenant exists: " + id);
  }
  return Status::Ok();
}

Status TenantRegistry::Admit(const TenantConfig& config) {
  IMCF_ASSIGN_OR_RETURN(trace::DatasetSpec spec, SpecForConfig(config));
  return AdmitWithSpec(config, std::move(spec));
}

sim::SimulationOptions TenantRegistry::BuildSimOptions(
    const TenantConfig& config, trace::DatasetSpec spec) const {
  sim::SimulationOptions options;
  options.spec = std::move(spec);
  options.start =
      config.start != 0 ? config.start : trace::EvaluationStart();
  options.hours = config.hours != 0 ? config.hours : 365 * 24;
  options.slot_hours = config.slot_hours;
  options.budget_kwh = config.budget_kwh;  // 0 selects the spec budget
  options.seed = config.seed;
  options.fault = fault_;
  options.retry = retry_;
  options.ifttt_extra = config.extra_recipes;
  return options;
}

firewall::conflict::ConflictReport TenantRegistry::AnalyzeRuleSet(
    const TenantConfig& config, const trace::DatasetSpec& spec,
    const sim::Simulator& simulator) {
  // Lower-bound power draw of executing one rule, from the tenant's device
  // spec: the HVAC's circulation fan runs whenever a setpoint executes,
  // and a light at `value`% draws at least half its dimmed power over the
  // window (duty-cycle floor). Deliberately conservative so a feasible MRT
  // is never rejected.
  firewall::conflict::TenantRuleSet rule_set;
  rule_set.mrt = &simulator.mrt();
  rule_set.ifttt = &simulator.ifttt();
  rule_set.budget_kwh = simulator.total_budget_kwh();
  const int hours = simulator.options().hours != 0 ? simulator.options().hours
                                                   : 365 * 24;
  rule_set.period_days = hours >= 24 ? hours / 24 : 1;
  rule_set.units = spec.units;
  const double fan_kw = spec.hvac.fan_kw;
  const double light_kw = spec.light.max_power_kw;
  rule_set.hourly_energy = [fan_kw, light_kw](const rules::MetaRule& rule,
                                              int /*hour*/) {
    if (rule.action == rules::RuleAction::kSetTemperature) return fan_kw;
    return light_kw * (rule.value / 100.0) * 0.5;
  };
  return conflict_analyzer_.Analyze(ShardOf(config.id), config.id, rule_set);
}

Status TenantRegistry::AdmitWithSpec(const TenantConfig& config,
                                     trace::DatasetSpec spec) {
  if (config.id.empty()) {
    return Status::InvalidArgument("tenant id must not be empty");
  }
  if (Find(config.id) != nullptr) {
    return Status::AlreadyExists("tenant exists: " + config.id);
  }
  auto simulator =
      std::make_unique<sim::Simulator>(BuildSimOptions(config, spec));
  // Prepare outside all locks: it builds the ambient series, the expensive
  // part, and touches no shared state.
  IMCF_RETURN_IF_ERROR(simulator->Prepare());

  // Conflict gate: the rule set must clear all three detectors before the
  // tenant becomes visible. Analysis time is attributed to the tenant's
  // own ledger row (kConflict phase) — a hostile tenant pays for its own
  // rejections — and the span lands on the admission trace. The cost scope
  // opens first so it is still ambient when the span closes and charges.
  firewall::conflict::ConflictReport report;
  {
    obs::ScopedCost cost(cost_ledger_, ShardOf(config.id), config.id);
    obs::ScopedSpan span("conflict.admission", "serve",
                         {.phase = obs::CostPhase::kConflict});
    report = AnalyzeRuleSet(config, spec, *simulator);
    span.Arg("findings", static_cast<int64_t>(report.findings.size()));
    if (!report.ok()) {
      if (cost.local() != nullptr) cost.local()->conflict_rejections += 1;
    }
  }
  if (!report.ok()) {
    return Status::FailedPrecondition("conflict: " + report.Summary());
  }

  auto tenant = std::make_shared<Tenant>(config, std::move(simulator));
  tenant->policy_ = firewall::conflict::DerivePolicy(
      tenant->simulator().mrt(), tenant->simulator().ifttt());
  Status admitted = AdmitPrepared(config.id, std::move(tenant));
  if (!admitted.ok()) {
    // Lost an admission race: drop the edges the analysis installed.
    conflict_analyzer_.Forget(ShardOf(config.id), config.id);
  }
  return admitted;
}

Status TenantRegistry::ApplyMrtUpdate(
    Tenant& tenant, const MrtUpdateRequest& update,
    firewall::conflict::ConflictReport* report) {
  TenantConfig config = tenant.config_;
  if (update.seed != 0) config.seed = update.seed;
  if (update.mrt_variation >= 0.0) config.mrt_variation = update.mrt_variation;
  if (update.budget_kwh >= 0.0) config.budget_kwh = update.budget_kwh;
  if (update.set_recipes) config.extra_recipes = update.extra_recipes;

  IMCF_ASSIGN_OR_RETURN(trace::DatasetSpec spec, SpecForConfig(config));
  auto simulator =
      std::make_unique<sim::Simulator>(BuildSimOptions(config, spec));
  IMCF_RETURN_IF_ERROR(simulator->Prepare());

  obs::ScopedSpan span("conflict.update", "serve",
                       {.phase = obs::CostPhase::kConflict});
  firewall::conflict::ConflictReport local = AnalyzeRuleSet(config, spec,
                                                            *simulator);
  span.Arg("findings", static_cast<int64_t>(local.findings.size()));
  if (report != nullptr) *report = local;
  if (!local.ok()) {
    // The analyzer restored the previously-admitted edges; the tenant
    // keeps its current rule set.
    return Status::FailedPrecondition("conflict: " + local.Summary());
  }

  tenant.config_ = std::move(config);
  tenant.simulator_ = std::move(simulator);
  tenant.policy_ = firewall::conflict::DerivePolicy(
      tenant.simulator_->mrt(), tenant.simulator_->ifttt());
  return Status::Ok();
}

Status TenantRegistry::RestoreStats(const TenantId& id,
                                    const TenantStats& stats) {
  return WithTenant(id, [&stats](Tenant& tenant) {
    tenant.stats() = stats;
    return Status::Ok();
  });
}

Status TenantRegistry::Remove(const TenantId& id) {
  {
    Shard& shard = *shards_[static_cast<size_t>(ShardOf(id))];
    std::lock_guard<std::mutex> lock(shard.mu);
    if (!shard.tenants.Erase(id)) {
      return Status::NotFound("no such tenant: " + id);
    }
  }
  // Evicted tenants stop contributing command edges (and /conflictz rows).
  conflict_analyzer_.Forget(ShardOf(id), id);
  return Status::Ok();
}

bool TenantRegistry::Contains(const TenantId& id) const {
  return Find(id) != nullptr;
}

size_t TenantRegistry::size() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    n += shard->tenants.size();
  }
  return n;
}

std::vector<TenantId> TenantRegistry::TenantIds() const {
  std::vector<TenantId> ids;
  ids.reserve(size());
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->tenants.ForEach(
        [&ids](const TenantId& id, const std::shared_ptr<Tenant>&) {
          ids.push_back(id);
        });
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

Status TenantRegistry::WithTenant(const TenantId& id,
                                  const std::function<Status(Tenant&)>& fn) {
  std::shared_ptr<Tenant> tenant = Find(id);
  if (tenant == nullptr) return Status::NotFound("no such tenant: " + id);
  // The span covers the tenant-mutex wait plus `fn`; contention on a hot
  // tenant shows up as serve.execute time spent here before any sim span.
  obs::ScopedSpan span("tenant.with", "serve");
  // Cost scope BEFORE the tenant mutex: lower layers (sim, planner,
  // evaluators) accumulate into its thread-local sink while `fn` runs, and
  // the single ledger flush happens after the mutex is released.
  obs::ScopedCost cost(cost_ledger_, ShardOf(id), id);
  std::lock_guard<std::mutex> lock(tenant->mu_);
  return fn(*tenant);
}

Result<TenantConfig> TenantRegistry::GetConfig(const TenantId& id) const {
  std::shared_ptr<Tenant> tenant = Find(id);
  if (tenant == nullptr) return Status::NotFound("no such tenant: " + id);
  // MRT updates mutate the config in place, so reads take the tenant lock.
  std::lock_guard<std::mutex> lock(tenant->mu_);
  return tenant->config();
}

Result<TenantStats> TenantRegistry::GetStats(const TenantId& id) const {
  std::shared_ptr<Tenant> tenant = Find(id);
  if (tenant == nullptr) return Status::NotFound("no such tenant: " + id);
  std::lock_guard<std::mutex> lock(tenant->mu_);
  return tenant->stats();
}

TableSchema TenantSnapshotSchema() {
  return TableSchema{"tenants",
                     {{"id", ColumnType::kString},
                      {"dataset", ColumnType::kString},
                      {"seed", ColumnType::kInt},
                      {"budget_kwh", ColumnType::kDouble},
                      {"start", ColumnType::kInt},
                      {"hours", ColumnType::kInt},
                      {"slot_hours", ColumnType::kInt},
                      {"mrt_variation", ColumnType::kDouble},
                      {"appetite", ColumnType::kDouble},
                      {"plans_served", ColumnType::kInt},
                      {"commands_served", ColumnType::kInt},
                      {"queries_served", ColumnType::kInt},
                      {"deadline_expired", ColumnType::kInt},
                      {"fe_kwh_total", ColumnType::kDouble}}};
}

Status TenantRegistry::Save(TableStore* store) const {
  if (store == nullptr) {
    return Status::InvalidArgument("snapshot store is null");
  }
  IMCF_ASSIGN_OR_RETURN(Table * table,
                        store->OpenOrCreateTable(TenantSnapshotSchema()));
  // Truncate-and-rewrite keeps the table equal to the live fleet; the
  // marker-based truncate plus auto-compaction keeps the backing log
  // bounded under frequent checkpoints (storage/table_store.h).
  IMCF_RETURN_IF_ERROR(table->Truncate());
  for (const TenantId& id : TenantIds()) {
    std::shared_ptr<Tenant> tenant = Find(id);
    if (tenant == nullptr) continue;  // removed since listing
    TenantConfig config;
    TenantStats stats;
    {
      std::lock_guard<std::mutex> lock(tenant->mu_);
      config = tenant->config();
      stats = tenant->stats();
    }
    IMCF_RETURN_IF_ERROR(table->Insert(
        {config.id, config.dataset, static_cast<int64_t>(config.seed),
         config.budget_kwh, static_cast<int64_t>(config.start),
         static_cast<int64_t>(config.hours),
         static_cast<int64_t>(config.slot_hours), config.mrt_variation,
         config.appetite, stats.plans_served, stats.commands_served,
         stats.queries_served, stats.deadline_expired, stats.fe_kwh_total}));
  }
  return table->Flush();
}

Result<int> TenantRegistry::Load(TableStore* store) {
  if (store == nullptr) {
    return Status::InvalidArgument("snapshot store is null");
  }
  IMCF_ASSIGN_OR_RETURN(Table * table,
                        store->OpenOrCreateTable(TenantSnapshotSchema()));
  int recovered = 0;
  for (const Row& row : table->rows()) {
    TenantConfig config;
    config.id = std::get<std::string>(row[0]);
    config.dataset = std::get<std::string>(row[1]);
    config.seed = static_cast<uint64_t>(std::get<int64_t>(row[2]));
    config.budget_kwh = std::get<double>(row[3]);
    config.start = std::get<int64_t>(row[4]);
    config.hours = static_cast<int>(std::get<int64_t>(row[5]));
    config.slot_hours = static_cast<int>(std::get<int64_t>(row[6]));
    config.mrt_variation = std::get<double>(row[7]);
    config.appetite = std::get<double>(row[8]);
    TenantStats stats;
    stats.plans_served = std::get<int64_t>(row[9]);
    stats.commands_served = std::get<int64_t>(row[10]);
    stats.queries_served = std::get<int64_t>(row[11]);
    stats.deadline_expired = std::get<int64_t>(row[12]);
    stats.fe_kwh_total = std::get<double>(row[13]);
    IMCF_RETURN_IF_ERROR(Admit(config));
    IMCF_RETURN_IF_ERROR(RestoreStats(config.id, stats));
    ++recovered;
  }
  return recovered;
}

}  // namespace serve
}  // namespace imcf
