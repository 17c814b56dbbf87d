// Per-tenant SLO burn-rate engine over sliding sim-time windows.
//
// An SLO says "at most X% of this tenant's requests may be bad"; the error
// budget is that X%. The burn rate is how fast the budget is being spent:
// bad_fraction / budget, so burn 1.0 exhausts the budget exactly at the end
// of the window and burn 2.0 exhausts it halfway through. Following the
// multi-window pattern, an alert fires only when BOTH a short window (fast
// signal) and a long window (sustained, not a blip) burn at or above the
// threshold — a short spike that already drained out of the long window
// stays quiet, and a long-dead incident no longer pins the alert.
//
// Three objectives per tenant, matching what the fleet actually promises:
//
//   * kPlanLatency  — fraction of plan requests slower (wall) than the
//                     target must stay under 1 - latency_target_quantile.
//   * kShedRate     — fraction of submissions shed at admission must stay
//                     under max_shed_rate.
//   * kDeadlineHit  — fraction of deadline-carrying requests that miss must
//                     stay under 1 - min_deadline_hit_rate.
//
// Windows slide on SIMULATION time (the fleet's drain clock), bucketed into
// bucket_seconds rings with lazy invalidation: each bucket remembers which
// absolute bucket index it holds, so a sim-clock jump across any number of
// boundaries simply orphans stale buckets (they read as zero) instead of
// requiring an eager sweep. A slot only ever moves forward: an event older
// than the slot's current occupant is dropped, so the ring always holds the
// newest long window. Every bad event carries the request's trace id;
// the newest one in the window is reported as the alert's exemplar, linking
// a burning SLO straight to flight-recorder spans.
//
// Like the rest of obs, this module is a dependency leaf (std only).

#ifndef IMCF_OBS_SLO_SLO_ENGINE_H_
#define IMCF_OBS_SLO_SLO_ENGINE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace imcf {
namespace obs {

/// Objectives tracked per tenant.
enum class SloObjective : uint8_t {
  kPlanLatency = 0,  ///< plan wall latency at the target quantile
  kShedRate = 1,     ///< admission sheds / submissions
  kDeadlineHit = 2,  ///< deadline misses / deadline-carrying requests
};

inline constexpr size_t kNumSloObjectives = 3;

const char* SloObjectiveName(SloObjective objective);

/// Per-tenant objectives and window geometry. The defaults are deliberately
/// loose (a fleet under test should be quiet); tests and tenants with real
/// promises tighten them via SloEngine::SetObjectives.
struct SloOptions {
  /// kPlanLatency: a plan request is bad if its wall time exceeds this.
  int64_t plan_latency_ms = 250;
  /// ...and at most (1 - quantile) of plan requests may be bad.
  double latency_target_quantile = 0.99;
  /// kShedRate: budgeted fraction of submissions shed at admission.
  double max_shed_rate = 0.05;
  /// kDeadlineHit: required hit rate among deadline-carrying requests.
  double min_deadline_hit_rate = 0.95;
  /// Fire when BOTH windows burn at or above this (>= — exactly-at fires).
  double burn_threshold = 2.0;
  /// Short (fast) and long (sustained) windows, in sim seconds.
  int64_t short_window_seconds = 3600;
  int64_t long_window_seconds = 86400;
  /// Ring bucket width; must divide into sensibly many buckets per window.
  int64_t bucket_seconds = 900;
};

/// One request's worth of SLO-relevant facts, fed once per response (or
/// once per shed decision, with shed = true and everything else false).
struct SloEvent {
  int64_t sim_time = 0;        ///< fleet drain clock (sim seconds)
  bool shed = false;           ///< rejected at admission
  bool is_plan = false;        ///< counts toward kPlanLatency
  int64_t plan_wall_ns = 0;    ///< wall time of the plan, if is_plan
  bool had_deadline = false;   ///< counts toward kDeadlineHit
  bool deadline_miss = false;  ///< ...and missed it
  uint64_t trace_id = 0;       ///< exemplar link into the flight recorder
};

/// Evaluated state of one (tenant, objective) pair.
struct BurnStatus {
  std::string tenant;
  SloObjective objective = SloObjective::kPlanLatency;
  double short_burn = 0.0;
  double long_burn = 0.0;
  bool firing = false;
  uint64_t exemplar_trace_id = 0;  ///< newest bad event in the long window
};

/// The engine: per-tenant bucket rings, evaluated on demand. Observe is a
/// short mutex hold (once per response — three orders of magnitude cooler
/// than the planner's inner loops). A tenant's three BurnStatus rows are a
/// pure function of its ring, its options and sim_now / bucket_seconds, so
/// each tenant caches them. Evaluate and NewlyFiring recompute only the
/// tenants observed or reconfigured since the last evaluation, plus — once
/// per bucket rollover — the tenants whose bucket index moved; between
/// rollovers a call costs the dirty tenants, not the registry. Evaluate then
/// copies every cached row out; NewlyFiring edge-checks only the tenants
/// recomputed since its previous call.
class SloEngine {
 public:
  explicit SloEngine(SloOptions defaults = {});

  SloEngine(const SloEngine&) = delete;
  SloEngine& operator=(const SloEngine&) = delete;

  /// Overrides the objectives for one tenant (takes effect on the next
  /// Observe/Evaluate). Window contents are kept unless the geometry
  /// changes: a new bucket_seconds or long_window_seconds resets the ring.
  void SetObjectives(const std::string& tenant, const SloOptions& options);

  /// Feeds one request's facts into the tenant's windows.
  void Observe(const std::string& tenant, const SloEvent& event);

  /// Burn state of every (tenant, objective), sorted by tenant then
  /// objective — deterministic for a given event stream and sim_now.
  std::vector<BurnStatus> Evaluate(int64_t sim_now) const;

  /// Rising-edge filter over Evaluate: the pairs that are firing now but
  /// were not firing at the previous NewlyFiring call. Drives the one-shot
  /// burn dumps (a sustained burn dumps once, not once per drain).
  std::vector<BurnStatus> NewlyFiring(int64_t sim_now);

  /// The /sloz body: Evaluate rendered as a JSON array.
  std::string ToJson(int64_t sim_now) const;

  /// Drops all windows and edge state (tests, between bench cells).
  void Clear();

 private:
  /// One ring bucket: absolute bucket index + per-objective good/bad
  /// tallies. A slot whose `index` disagrees with the index the reader or
  /// writer expects is stale (the clock moved on) and reads as zero.
  struct Bucket {
    int64_t index = -1;
    int64_t good[kNumSloObjectives] = {0, 0, 0};
    int64_t bad[kNumSloObjectives] = {0, 0, 0};
    uint64_t exemplar[kNumSloObjectives] = {0, 0, 0};  ///< last bad trace
  };

  /// Derived state, written by Refresh (which the const readers call too).
  struct Cache {
    BurnStatus rows[kNumSloObjectives];  ///< burn state at bucket `index`
    int64_t index = 0;        ///< sim_now / bucket_seconds the rows hold
    bool dirty = false;       ///< ring or options changed since the rows
    bool unchecked = false;   ///< rows recomputed since the last NewlyFiring
    uint8_t fired = 0;        ///< objective bits firing at last NewlyFiring
  };

  struct Tenant {
    SloOptions options;
    std::vector<Bucket> ring;  ///< sized for the long window
    mutable Cache cache;
  };

  using TenantMap = std::map<std::string, Tenant>;
  using TenantEntry = TenantMap::value_type;

  struct WindowTotals {
    int64_t good = 0;
    int64_t bad = 0;
    uint64_t exemplar = 0;
    int64_t exemplar_index = -1;  ///< bucket index the exemplar came from
  };

  TenantEntry& TenantState(const std::string& id);
  void MarkDirty(const TenantEntry& entry);
  /// The ring slot for `bucket_index`, reclaimed if it holds an older
  /// index; nullptr if it already holds a newer one (the event is stale).
  static Bucket* BucketFor(Tenant& tenant, int64_t bucket_index);
  WindowTotals Sum(const Tenant& tenant, SloObjective objective,
                   int64_t sim_now, int64_t window_seconds) const;
  static double Burn(const WindowTotals& totals, double budget);

  /// Brings every tenant's cached rows up to sim_now: the dirty tenants,
  /// and on leaving [stable_from_, stable_until_) every tenant whose bucket
  /// index moved, rebuilding that range. Caller holds mu_.
  void Refresh(int64_t sim_now) const;
  void Recompute(const TenantEntry& entry, int64_t sim_now) const;
  /// Shrinks the stable range to the sim times that keep `tenant`'s
  /// cached bucket index.
  void Narrow(const Tenant& tenant) const;

  SloOptions defaults_;
  mutable std::mutex mu_;
  TenantMap tenants_;
  /// Tenants marked dirty since the last Refresh.
  mutable std::vector<const TenantEntry*> dirty_;
  /// Tenants recomputed since the last NewlyFiring.
  mutable std::vector<const TenantEntry*> unchecked_;
  /// Sim times at which no clean tenant's bucket index differs from its
  /// cached one. Empty until the first Refresh.
  mutable int64_t stable_from_ = 0;
  mutable int64_t stable_until_ = 0;
};

}  // namespace obs
}  // namespace imcf

#endif  // IMCF_OBS_SLO_SLO_ENGINE_H_
