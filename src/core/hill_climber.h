// The Energy Planner (EP): hill-climbing local search with k-opt moves
// (Algorithm 1 of the paper, lines 7-18).
//
// Per slot: build an initial solution (all-1s / random / all-0s, Fig. 8),
// then for τ_max iterations flip up to k uniformly random components of the
// current best ("neighborhoods that involve changing up to k components")
// and accept the candidate when it is feasible (F_E(s) ≤ E_p) and improves
// the convenience error (F_CE(s) < F_CE(s*)).
//
// Algorithm 1 as printed deadlocks when the initial solution is infeasible
// (no candidate can have a *lower* error than the all-1s start whose error
// is already minimal), so, like any practical constrained local search, EP
// repairs first: adopted rules are greedily dropped in decreasing
// energy-freed-per-convenience-lost order until the budget holds
// ("dropping certain rules based on preference priority"), then the printed
// acceptance rule takes over; if the search ever walks infeasible again,
// candidates are accepted on energy descent until feasibility returns.
// With a feasible start the behaviour is exactly Algorithm 1. If τ_max
// expires with s* still infeasible, EP falls back to the all-zeros plan
// (the NR vector, feasible whenever the necessity load fits the slot
// budget).

#ifndef IMCF_CORE_HILL_CLIMBER_H_
#define IMCF_CORE_HILL_CLIMBER_H_

#include <span>
#include <vector>

#include "core/planner.h"

namespace imcf {
namespace core {

/// EP tuning knobs (the control parameters studied in §III-C/D).
struct EpOptions {
  /// k-opt width: maximum components flipped per move (Fig. 7 sweeps
  /// 1..4). Each move flips between 1 and k components. Values above
  /// FlipBuffer::kCapacity are clamped to it (far beyond anything the
  /// paper or the benches exercise).
  int k = 4;
  /// Iteration budget τ_max. 0 selects max(40, 2·N) so large rule tables
  /// (dorms: 600 rules) still converge.
  int tau_max = 0;
  /// Initial-solution strategy (Fig. 8).
  InitStrategy init = InitStrategy::kAllOnes;
  /// Stop early once a feasible zero-error solution is held: no candidate
  /// can satisfy the strict-improvement acceptance rule afterwards (the
  /// paper's alternative termination criterion, §II-B).
  bool early_exit = true;
  /// Repair an infeasible start greedily (drop rules by energy freed per
  /// convenience lost) before the stochastic search. When false, recovery
  /// relies on the stochastic energy-descent phase alone — the
  /// configuration Fig. 7's k-opt study uses, since the greedy repair
  /// otherwise solves the slot before k can matter.
  bool greedy_repair = true;
};

/// Fixed-capacity candidate-flip scratch. The planners draw up-to-k flip
/// sets thousands of times per slot; the indices live in this stack buffer
/// and reach the evaluator as a std::span, so the move loop performs no
/// heap traffic at all.
class FlipBuffer {
 public:
  static constexpr int kCapacity = 32;

  int* data() { return data_; }
  const int* data() const { return data_; }
  int size() const { return size_; }
  void set_size(int n) { size_ = n; }

  operator std::span<const int>() const {
    return {data_, static_cast<size_t>(size_)};
  }

 private:
  int data_[kCapacity];
  int size_ = 0;
};

/// Hill-climbing Energy Planner.
class HillClimbingPlanner : public SlotPlanner {
 public:
  explicit HillClimbingPlanner(EpOptions options = {});

  PlanOutcome PlanSlot(const SlotEvaluator& evaluator,
                       Rng* rng) const override;

  std::string name() const override { return "EP"; }

  const EpOptions& options() const { return options_; }

  /// Effective iteration budget for a problem of `n_rules`.
  int EffectiveTauMax(int n_rules) const;

 private:
  EpOptions options_;
};

/// Samples `k` distinct indices in [0, n) into `out` (size k). If k >= n,
/// every index is selected once.
void SampleDistinct(int n, int k, Rng* rng, std::vector<int>* out);

/// Allocation-free variant: fills `out` with min(k, n) distinct indices.
/// Same sampling algorithm and rng stream as the vector overload. Requires
/// k <= FlipBuffer::kCapacity.
void SampleDistinct(int n, int k, Rng* rng, FlipBuffer* out);

}  // namespace core
}  // namespace imcf

#endif  // IMCF_CORE_HILL_CLIMBER_H_
