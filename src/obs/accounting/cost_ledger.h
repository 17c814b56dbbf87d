// Per-tenant cost attribution: who is spending what, by phase.
//
// The metrics registry (obs/metrics.h) answers "how much did the fleet
// spend"; the flight recorder answers "where did THIS request go". Neither
// can answer the meta-control firewall's core arbitration question — which
// *tenant* is consuming the shared budget — so the CostLedger attributes
// every unit of work to its tenant: CPU nanoseconds by phase (queue wait,
// plan search, simulation, command bus), evaluator flip evaluations, and
// outcome tallies (ok / error / shed / deadline / fault).
//
// Design rules, in the spirit of the rest of obs:
//
//   * Lock-cheap. A ScopedCost accumulates into plain (non-atomic) fields
//     of a stack-local TenantCost and takes exactly one shard mutex at
//     destruction to merge. Layers below the scope (the simulator, the
//     evaluators) add through a thread-local pointer — one TLS read and a
//     plain add, no atomics, no branches beyond a null check.
//   * One clock. Phase nanoseconds are written by exactly two things: a
//     closing obs::ScopedSpan with a SpanSinks::phase (its self time, see
//     obs/tracer.h) and the drain's queue-wait observation. No call site
//     reads the clock a second time to charge a phase.
//   * Deterministic. Every non-timing field is an int64 count, so ledger
//     totals are sums of commutative integer adds: bit-identical for any
//     worker count, like the canonical trace trees (DESIGN.md §11). The
//     *_ns fields are wall measurements and are masked by CanonicalText().
//
// This module is a dependency leaf (std only), like the rest of obs.

#ifndef IMCF_OBS_ACCOUNTING_COST_LEDGER_H_
#define IMCF_OBS_ACCOUNTING_COST_LEDGER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace imcf {
namespace obs {

/// Where a unit of tenant work spent its CPU time.
enum class CostPhase : uint8_t {
  kQueueWait = 0,   ///< admission to drain (wall, observed by the drain)
  kPlan = 1,        ///< planner step (ep.search / plan.search self time)
  kSim = 2,         ///< simulation outside the planner (sim.run self time)
  kCommandBus = 3,  ///< fault-gated command delivery (bus.deliver)
  kConflict = 4,    ///< conflict analysis (conflict.admission / .update)
};

inline constexpr size_t kNumCostPhases = 5;

const char* CostPhaseName(CostPhase phase);

/// One tenant's accumulated cost. Addition-merge semantics: every field is
/// a sum, so merging shard ledgers or per-request deltas is `+=` per field
/// and order-independent (all-int64 keeps merges bit-exact).
struct TenantCost {
  int64_t phase_ns[kNumCostPhases] = {};  ///< wall measurements
  int64_t flip_evals = 0;      ///< evaluator flip/full evaluations
  int64_t plans_ok = 0;        ///< plan requests served successfully
  int64_t commands_ok = 0;     ///< commands delivered
  int64_t queries_ok = 0;      ///< queries served
  int64_t mrt_updates_ok = 0;  ///< MRT updates accepted by the conflict pass
  int64_t errors = 0;          ///< kError outcomes
  int64_t sheds = 0;           ///< admission rejections charged to the tenant
  int64_t deadline_misses = 0; ///< kDeadlineExceeded outcomes
  int64_t faults = 0;          ///< injected-fault encounters (bus retries etc.)
  int64_t conflict_rejections = 0;  ///< kConflictRejected verdicts

  TenantCost& operator+=(const TenantCost& other);

  /// Total CPU nanoseconds across all phases.
  int64_t total_ns() const;

  friend bool operator==(const TenantCost&, const TenantCost&) = default;
};

/// Sort keys for the top-K ledger view (/tenantz?sort=...).
enum class CostSortKey : uint8_t {
  kCpu = 0,    ///< total_ns, descending
  kPlans = 1,  ///< plans_ok, descending
  kSheds = 2,  ///< sheds + deadline_misses, descending
};

/// Parses "cpu" | "plans" | "sheds"; nullopt for any other name.
std::optional<CostSortKey> ParseCostSortKey(const std::string& name);

/// The fleet-wide ledger: one sub-ledger per shard, each a mutex over a
/// tenant->cost map. Writers touch only their tenant's shard; a snapshot
/// walks the shards in index order and merges per tenant id, so the merged
/// view is deterministic regardless of write interleaving.
class CostLedger {
 public:
  struct Row {
    std::string tenant;
    TenantCost cost;
  };

  /// `shards` must match the caller's shard striping (>= 1).
  explicit CostLedger(int shards = 8);

  CostLedger(const CostLedger&) = delete;
  CostLedger& operator=(const CostLedger&) = delete;

  /// Merges `delta` into (shard, tenant) under the shard's mutex. One call
  /// per unit of work — batch locally, flush once (ScopedCost does).
  void Apply(int shard, const std::string& tenant, const TenantCost& delta);

  /// Convenience single-field add (the drain's queue-wait observation).
  void AddPhaseNs(int shard, const std::string& tenant, CostPhase phase,
                  int64_t ns);

  /// Consistent merged copy, sorted by tenant id (deterministic).
  std::vector<Row> Snapshot() const;

  /// Top-`k` tenants by `key` (descending; tenant id breaks ties so the
  /// order is total). k == 0 returns every tenant.
  std::vector<Row> TopK(size_t k, CostSortKey key) const;

  /// Determinism witness: every deterministic field of every tenant, one
  /// line per tenant sorted by id, wall-measurement fields masked. Two
  /// runs of the same request stream produce identical text at any worker
  /// count.
  std::string CanonicalText() const;

  /// Renders the top-K view as a JSON array (the /tenantz body). The
  /// *_ns measurements ARE included here — introspection wants them; only
  /// the canonical witness masks them.
  std::string ToJson(size_t k, CostSortKey key) const;

  /// Drops every row (tests, between bench cells).
  void Clear();

  int shards() const { return static_cast<int>(shards_.size()); }

 private:
  struct Shard {
    mutable std::mutex mu;
    std::map<std::string, TenantCost> tenants;
  };

  std::vector<std::unique_ptr<Shard>> shards_;
};

// ---------------------------------------------------------------------------
// Ambient accumulation hooks.
//
// A ScopedCost publishes its local TenantCost as the thread's ambient cost
// sink; layers that know their cost but not their tenant (phase spans, the
// evaluators' flip tallies) add through it — spans at close, counts
// through the CostAdd* free functions. One scope per unit of tenant
// work, opened where the tenant is known (TenantRegistry::WithTenant, the
// cloud controller's coordination loop), flushed to the ledger exactly
// once at destruction.
// ---------------------------------------------------------------------------

/// RAII cost scope: stack-local accumulator, ambient for nested layers,
/// one locked merge into the ledger at destruction. Scopes nest — an inner
/// scope shadows the outer one (its costs flush to its own tenant), and the
/// outer sink is restored on exit. A scope with a null ledger is inert.
class ScopedCost {
 public:
  ScopedCost(CostLedger* ledger, int shard, const std::string& tenant);
  /// The tenant id is borrowed until the flush at destruction; a temporary
  /// would dangle, so it is rejected at compile time.
  ScopedCost(CostLedger* ledger, int shard, std::string&& tenant) = delete;
  ~ScopedCost();

  ScopedCost(const ScopedCost&) = delete;
  ScopedCost& operator=(const ScopedCost&) = delete;

  /// The scope's accumulator (null when inert). Callers that already hold
  /// the scope add directly instead of via the ambient hooks.
  TenantCost* local() { return active_ ? &local_ : nullptr; }
  bool active() const { return active_; }

 private:
  CostLedger* ledger_ = nullptr;
  int shard_ = 0;
  const std::string* tenant_ = nullptr;  ///< borrowed; outlives the scope
  TenantCost local_;
  TenantCost* saved_ambient_ = nullptr;
  bool active_ = false;
};

/// Adds to the calling thread's ambient cost sink; no-ops without one.
void CostAddFlipEvals(int64_t n);
void CostAddFault(int64_t n = 1);

/// The ambient sink itself (null when no scope is open): where closing
/// phase spans charge their self time, and what tests inspect.
TenantCost* AmbientCost();

}  // namespace obs
}  // namespace imcf

#endif  // IMCF_OBS_ACCOUNTING_COST_LEDGER_H_
