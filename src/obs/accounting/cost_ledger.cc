#include "obs/accounting/cost_ledger.h"

#include <algorithm>
#include <cstdio>

#include "obs/json_writer.h"

namespace imcf {
namespace obs {
namespace {

/// The thread's ambient cost sink. Owned by the innermost live ScopedCost;
/// null when no scope is open (hooks no-op, so bench/test code that calls
/// the planner without a tenant costs one TLS load + branch).
thread_local TenantCost* g_ambient_cost = nullptr;

int64_t SortValue(const TenantCost& cost, CostSortKey key) {
  switch (key) {
    case CostSortKey::kCpu:
      return cost.total_ns();
    case CostSortKey::kPlans:
      return cost.plans_ok;
    case CostSortKey::kSheds:
      return cost.sheds + cost.deadline_misses;
  }
  return 0;
}

}  // namespace

const char* CostPhaseName(CostPhase phase) {
  switch (phase) {
    case CostPhase::kQueueWait:
      return "queue_wait";
    case CostPhase::kPlan:
      return "plan";
    case CostPhase::kSim:
      return "sim";
    case CostPhase::kCommandBus:
      return "command_bus";
    case CostPhase::kConflict:
      return "conflict";
  }
  return "unknown";
}

TenantCost& TenantCost::operator+=(const TenantCost& other) {
  for (size_t i = 0; i < kNumCostPhases; ++i) phase_ns[i] += other.phase_ns[i];
  flip_evals += other.flip_evals;
  plans_ok += other.plans_ok;
  commands_ok += other.commands_ok;
  queries_ok += other.queries_ok;
  mrt_updates_ok += other.mrt_updates_ok;
  errors += other.errors;
  sheds += other.sheds;
  deadline_misses += other.deadline_misses;
  faults += other.faults;
  conflict_rejections += other.conflict_rejections;
  return *this;
}

int64_t TenantCost::total_ns() const {
  int64_t total = 0;
  for (size_t i = 0; i < kNumCostPhases; ++i) total += phase_ns[i];
  return total;
}

std::optional<CostSortKey> ParseCostSortKey(const std::string& name) {
  if (name == "cpu") return CostSortKey::kCpu;
  if (name == "plans") return CostSortKey::kPlans;
  if (name == "sheds") return CostSortKey::kSheds;
  return std::nullopt;
}

CostLedger::CostLedger(int shards) {
  if (shards < 1) shards = 1;
  shards_.reserve(static_cast<size_t>(shards));
  for (int i = 0; i < shards; ++i) shards_.push_back(std::make_unique<Shard>());
}

void CostLedger::Apply(int shard, const std::string& tenant,
                       const TenantCost& delta) {
  Shard& s = *shards_[static_cast<size_t>(shard) % shards_.size()];
  std::lock_guard<std::mutex> lock(s.mu);
  s.tenants[tenant] += delta;
}

void CostLedger::AddPhaseNs(int shard, const std::string& tenant,
                            CostPhase phase, int64_t ns) {
  Shard& s = *shards_[static_cast<size_t>(shard) % shards_.size()];
  std::lock_guard<std::mutex> lock(s.mu);
  s.tenants[tenant].phase_ns[static_cast<size_t>(phase)] += ns;
}

std::vector<CostLedger::Row> CostLedger::Snapshot() const {
  // Merge shard maps into one; std::map keeps the result tenant-sorted.
  // A tenant lives in exactly one shard, but merging by id keeps the
  // snapshot correct even if the caller's striping disagrees with ours.
  std::map<std::string, TenantCost> merged;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [tenant, cost] : shard->tenants) merged[tenant] += cost;
  }
  std::vector<Row> rows;
  rows.reserve(merged.size());
  for (auto& [tenant, cost] : merged) rows.push_back(Row{tenant, cost});
  return rows;
}

std::vector<CostLedger::Row> CostLedger::TopK(size_t k, CostSortKey key) const {
  std::vector<Row> rows = Snapshot();
  std::stable_sort(rows.begin(), rows.end(),
                   [key](const Row& a, const Row& b) {
                     int64_t va = SortValue(a.cost, key);
                     int64_t vb = SortValue(b.cost, key);
                     if (va != vb) return va > vb;
                     return a.tenant < b.tenant;
                   });
  if (k > 0 && rows.size() > k) rows.resize(k);
  return rows;
}

std::string CostLedger::CanonicalText() const {
  // One line per tenant, deterministic fields only: the *_ns columns are
  // wall measurements and vary run to run, so they are masked the same way
  // CanonicalTraceText masks span timings.
  std::string out;
  for (const Row& row : Snapshot()) {
    char line[320];
    std::snprintf(line, sizeof(line),
                  "%s flip_evals=%lld plans_ok=%lld "
                  "commands_ok=%lld queries_ok=%lld mrt_updates_ok=%lld "
                  "errors=%lld sheds=%lld deadline_misses=%lld faults=%lld "
                  "conflict_rejections=%lld\n",
                  row.tenant.c_str(),
                  static_cast<long long>(row.cost.flip_evals),
                  static_cast<long long>(row.cost.plans_ok),
                  static_cast<long long>(row.cost.commands_ok),
                  static_cast<long long>(row.cost.queries_ok),
                  static_cast<long long>(row.cost.mrt_updates_ok),
                  static_cast<long long>(row.cost.errors),
                  static_cast<long long>(row.cost.sheds),
                  static_cast<long long>(row.cost.deadline_misses),
                  static_cast<long long>(row.cost.faults),
                  static_cast<long long>(row.cost.conflict_rejections));
    out += line;
  }
  return out;
}

std::string CostLedger::ToJson(size_t k, CostSortKey key) const {
  JsonWriter w;
  w.BeginArray();
  for (const Row& row : TopK(k, key)) {
    w.BeginObject();
    w.Key("tenant").String(row.tenant);
    w.Key("cpu_ns").BeginObject();
    for (size_t i = 0; i < kNumCostPhases; ++i) {
      w.Key(CostPhaseName(static_cast<CostPhase>(i)))
          .Int(row.cost.phase_ns[i]);
    }
    w.Key("total").Int(row.cost.total_ns());
    w.EndObject();
    w.Key("flip_evals").Int(row.cost.flip_evals);
    w.Key("plans_ok").Int(row.cost.plans_ok);
    w.Key("commands_ok").Int(row.cost.commands_ok);
    w.Key("queries_ok").Int(row.cost.queries_ok);
    w.Key("mrt_updates_ok").Int(row.cost.mrt_updates_ok);
    w.Key("errors").Int(row.cost.errors);
    w.Key("sheds").Int(row.cost.sheds);
    w.Key("deadline_misses").Int(row.cost.deadline_misses);
    w.Key("faults").Int(row.cost.faults);
    w.Key("conflict_rejections").Int(row.cost.conflict_rejections);
    w.EndObject();
  }
  w.EndArray();
  return w.str();
}

void CostLedger::Clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->tenants.clear();
  }
}

ScopedCost::ScopedCost(CostLedger* ledger, int shard,
                       const std::string& tenant)
    : ledger_(ledger),
      shard_(shard),
      tenant_(&tenant),
      active_(ledger != nullptr) {
  if (!active_) return;
  saved_ambient_ = g_ambient_cost;
  g_ambient_cost = &local_;
}

ScopedCost::~ScopedCost() {
  if (!active_) return;
  g_ambient_cost = saved_ambient_;
  if (local_ == TenantCost{}) return;  // nothing accrued; skip the lock
  ledger_->Apply(shard_, *tenant_, local_);
}

void CostAddFlipEvals(int64_t n) {
  if (TenantCost* sink = g_ambient_cost) sink->flip_evals += n;
}

void CostAddFault(int64_t n) {
  if (TenantCost* sink = g_ambient_cost) sink->faults += n;
}

TenantCost* AmbientCost() { return g_ambient_cost; }

}  // namespace obs
}  // namespace imcf
