#include "obs/slo/slo_engine.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <limits>

#include "obs/json_writer.h"

namespace imcf {
namespace obs {
namespace {

/// Error budget for one objective: the allowed bad fraction. Clamped away
/// from zero so a misconfigured 100% target degrades to a huge burn rather
/// than a division by zero.
double BudgetFor(const SloOptions& options, SloObjective objective) {
  double budget = 0.0;
  switch (objective) {
    case SloObjective::kPlanLatency:
      budget = 1.0 - options.latency_target_quantile;
      break;
    case SloObjective::kShedRate:
      budget = options.max_shed_rate;
      break;
    case SloObjective::kDeadlineHit:
      budget = 1.0 - options.min_deadline_hit_rate;
      break;
  }
  return std::max(budget, 1e-9);
}

/// Narrows [*from, *until) to the sim times t with t / width == index.
/// Division truncates toward zero, so bucket 0 spans (-width, width) and a
/// negative bucket ends one past its multiple of width. Ends that would
/// overflow saturate, which only ever shrinks the range.
void IntersectBucketSpan(int64_t index, int64_t width, int64_t* from,
                         int64_t* until) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const int64_t base = index * width;  // no larger in magnitude than t
  int64_t lo = base;  // a positive bucket starts at its multiple
  if (index <= 0) lo = base >= kMin + (width - 1) ? base - (width - 1) : kMin;
  int64_t hi = base + 1;  // a negative bucket ends just past its multiple
  if (index >= 0) hi = base <= kMax - width ? base + width : kMax;
  *from = std::max(*from, lo);
  *until = std::min(*until, hi);
}

}  // namespace

const char* SloObjectiveName(SloObjective objective) {
  switch (objective) {
    case SloObjective::kPlanLatency:
      return "plan_latency";
    case SloObjective::kShedRate:
      return "shed_rate";
    case SloObjective::kDeadlineHit:
      return "deadline_hit";
  }
  return "unknown";
}

SloEngine::SloEngine(SloOptions defaults) : defaults_(defaults) {
  if (defaults_.bucket_seconds < 1) defaults_.bucket_seconds = 1;
}

SloEngine::TenantEntry& SloEngine::TenantState(const std::string& id) {
  auto [it, inserted] = tenants_.try_emplace(id);
  Tenant& tenant = it->second;
  if (inserted) {
    tenant.options = defaults_;
    // One slot per long-window bucket plus one: the window straddles up to
    // buckets+1 ring slots because "now" is mid-bucket.
    size_t slots = static_cast<size_t>(tenant.options.long_window_seconds /
                                       tenant.options.bucket_seconds) +
                   1;
    tenant.ring.resize(std::max<size_t>(slots, 2));
    for (size_t obj = 0; obj < kNumSloObjectives; ++obj) {
      tenant.cache.rows[obj].tenant = id;
      tenant.cache.rows[obj].objective = static_cast<SloObjective>(obj);
    }
    MarkDirty(*it);
  }
  return *it;
}

void SloEngine::MarkDirty(const TenantEntry& entry) {
  Cache& cache = entry.second.cache;
  if (cache.dirty) return;
  cache.dirty = true;
  dirty_.push_back(&entry);
}

SloEngine::Bucket* SloEngine::BucketFor(Tenant& tenant, int64_t bucket_index) {
  Bucket& bucket =
      tenant.ring[static_cast<size_t>(bucket_index) % tenant.ring.size()];
  // A newer occupant wins: a late event (a shed carries its request's
  // issue_time) must not erase the live window it has fallen out of.
  if (bucket.index > bucket_index) return nullptr;
  if (bucket.index != bucket_index) {
    // Stale occupant from >long_window ago (or a clock jump): reclaim.
    bucket = Bucket{};
    bucket.index = bucket_index;
  }
  return &bucket;
}

void SloEngine::SetObjectives(const std::string& tenant,
                              const SloOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  TenantEntry& entry = TenantState(tenant);
  Tenant& state = entry.second;
  MarkDirty(entry);
  SloOptions sanitized = options;
  if (sanitized.bucket_seconds < 1) sanitized.bucket_seconds = 1;
  bool regeometry =
      sanitized.bucket_seconds != state.options.bucket_seconds ||
      sanitized.long_window_seconds != state.options.long_window_seconds;
  state.options = sanitized;
  if (regeometry) {
    size_t slots = static_cast<size_t>(sanitized.long_window_seconds /
                                       sanitized.bucket_seconds) +
                   1;
    state.ring.assign(std::max<size_t>(slots, 2), Bucket{});
  }
}

void SloEngine::Observe(const std::string& tenant, const SloEvent& event) {
  std::lock_guard<std::mutex> lock(mu_);
  TenantEntry& entry = TenantState(tenant);
  Tenant& state = entry.second;
  int64_t bucket_index = event.sim_time / state.options.bucket_seconds;
  if (bucket_index < 0) bucket_index = 0;
  Bucket* bucket = BucketFor(state, bucket_index);
  if (bucket == nullptr) return;
  MarkDirty(entry);

  auto tally = [&](SloObjective objective, bool bad) {
    size_t i = static_cast<size_t>(objective);
    (bad ? bucket->bad[i] : bucket->good[i]) += 1;
    if (bad && event.trace_id != 0) bucket->exemplar[i] = event.trace_id;
  };

  // Every submission counts toward the shed objective; only served plans
  // count toward latency; only deadline-carrying requests toward deadlines.
  tally(SloObjective::kShedRate, event.shed);
  if (event.shed) return;  // shed requests produce no latency/deadline facts
  if (event.is_plan) {
    bool slow =
        event.plan_wall_ns > state.options.plan_latency_ms * 1'000'000;
    tally(SloObjective::kPlanLatency, slow);
  }
  if (event.had_deadline) {
    tally(SloObjective::kDeadlineHit, event.deadline_miss);
  }
}

SloEngine::WindowTotals SloEngine::Sum(const Tenant& tenant,
                                       SloObjective objective,
                                       int64_t sim_now,
                                       int64_t window_seconds) const {
  size_t obj = static_cast<size_t>(objective);
  int64_t now_index = sim_now / tenant.options.bucket_seconds;
  int64_t window_buckets =
      window_seconds / tenant.options.bucket_seconds;  // >= 1 by sanitation
  if (window_buckets < 1) window_buckets = 1;
  int64_t first = now_index - window_buckets + 1;

  WindowTotals totals;
  // The ring may be larger than the window (short window over the
  // long-window ring), so walk the window's index range, not the ring.
  for (int64_t index = first; index <= now_index; ++index) {
    if (index < 0) continue;
    const Bucket& bucket =
        tenant.ring[static_cast<size_t>(index) % tenant.ring.size()];
    if (bucket.index != index) continue;  // stale or never written
    totals.good += bucket.good[obj];
    totals.bad += bucket.bad[obj];
    if (bucket.exemplar[obj] != 0 && index > totals.exemplar_index) {
      totals.exemplar = bucket.exemplar[obj];
      totals.exemplar_index = index;
    }
  }
  return totals;
}

double SloEngine::Burn(const WindowTotals& totals, double budget) {
  int64_t total = totals.good + totals.bad;
  if (total == 0) return 0.0;  // empty window burns nothing
  double bad_fraction =
      static_cast<double>(totals.bad) / static_cast<double>(total);
  return bad_fraction / budget;
}

void SloEngine::Recompute(const TenantEntry& entry, int64_t sim_now) const {
  const Tenant& tenant = entry.second;
  Cache& cache = tenant.cache;
  for (size_t obj = 0; obj < kNumSloObjectives; ++obj) {
    SloObjective objective = static_cast<SloObjective>(obj);
    double budget = BudgetFor(tenant.options, objective);
    WindowTotals short_totals =
        Sum(tenant, objective, sim_now, tenant.options.short_window_seconds);
    WindowTotals long_totals =
        Sum(tenant, objective, sim_now, tenant.options.long_window_seconds);
    BurnStatus& status = cache.rows[obj];
    status.short_burn = Burn(short_totals, budget);
    status.long_burn = Burn(long_totals, budget);
    status.firing = status.short_burn >= tenant.options.burn_threshold &&
                    status.long_burn >= tenant.options.burn_threshold;
    status.exemplar_trace_id = long_totals.exemplar;
  }
  cache.index = sim_now / tenant.options.bucket_seconds;
  cache.dirty = false;
  if (!cache.unchecked) {
    cache.unchecked = true;
    unchecked_.push_back(&entry);
  }
}

void SloEngine::Narrow(const Tenant& tenant) const {
  IntersectBucketSpan(tenant.cache.index, tenant.options.bucket_seconds,
                      &stable_from_, &stable_until_);
}

void SloEngine::Refresh(int64_t sim_now) const {
  if (sim_now >= stable_from_ && sim_now < stable_until_) {
    for (const TenantEntry* entry : dirty_) {
      Recompute(*entry, sim_now);
      Narrow(entry->second);
    }
  } else {
    // Bucket rollover (or a clock jump, or the first call): the one pass
    // over every tenant.
    stable_from_ = std::numeric_limits<int64_t>::min();
    stable_until_ = std::numeric_limits<int64_t>::max();
    for (const TenantEntry& entry : tenants_) {
      const Tenant& tenant = entry.second;
      if (tenant.cache.dirty ||
          tenant.cache.index != sim_now / tenant.options.bucket_seconds) {
        Recompute(entry, sim_now);
      }
      Narrow(tenant);
    }
  }
  dirty_.clear();
}

std::vector<BurnStatus> SloEngine::Evaluate(int64_t sim_now) const {
  std::lock_guard<std::mutex> lock(mu_);
  Refresh(sim_now);
  std::vector<BurnStatus> out;
  out.reserve(tenants_.size() * kNumSloObjectives);
  for (const auto& [id, tenant] : tenants_) {  // map order: sorted by tenant
    out.insert(out.end(), std::begin(tenant.cache.rows),
               std::end(tenant.cache.rows));
  }
  return out;
}

std::vector<BurnStatus> SloEngine::NewlyFiring(int64_t sim_now) {
  std::lock_guard<std::mutex> lock(mu_);
  Refresh(sim_now);
  // A tenant not recomputed since the last call still holds the rows that
  // call saw, so only the recomputed ones can carry a rising edge.
  std::sort(unchecked_.begin(), unchecked_.end(),
            [](const TenantEntry* a, const TenantEntry* b) {
              return a->first < b->first;
            });
  std::vector<BurnStatus> fresh;
  for (const TenantEntry* entry : unchecked_) {
    Cache& cache = entry->second.cache;
    uint8_t firing = 0;
    for (size_t obj = 0; obj < kNumSloObjectives; ++obj) {
      if (!cache.rows[obj].firing) continue;
      const uint8_t bit = static_cast<uint8_t>(1u << obj);
      firing |= bit;
      if ((cache.fired & bit) == 0) fresh.push_back(cache.rows[obj]);
    }
    cache.fired = firing;
    cache.unchecked = false;
  }
  unchecked_.clear();
  return fresh;
}

std::string SloEngine::ToJson(int64_t sim_now) const {
  char hex[32];
  JsonWriter w;
  w.BeginObject();
  w.Key("sim_now").Int(sim_now);
  w.Key("objectives").BeginArray();
  for (const BurnStatus& status : Evaluate(sim_now)) {
    w.BeginObject();
    w.Key("tenant").String(status.tenant);
    w.Key("objective").String(SloObjectiveName(status.objective));
    w.Key("short_burn").Double(status.short_burn);
    w.Key("long_burn").Double(status.long_burn);
    w.Key("firing").Bool(status.firing);
    if (status.exemplar_trace_id != 0) {
      std::snprintf(hex, sizeof(hex), "0x%016llx",
                    static_cast<unsigned long long>(status.exemplar_trace_id));
      w.Key("exemplar_trace_id").String(hex);
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

void SloEngine::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  tenants_.clear();
  dirty_.clear();
  unchecked_.clear();
  stable_from_ = 0;
  stable_until_ = 0;
}

}  // namespace obs
}  // namespace imcf
