// Planner interface: one strategy for solving a SlotProblem.
//
// The Energy Planner (hill climbing, the paper's contribution), the
// simulated-annealing extension ("any heuristic or meta-heuristic approach
// can be utilized in the EP optimization step") and the NR/MR baselines all
// implement this interface, so the simulator and benchmarks treat them
// uniformly.

#ifndef IMCF_CORE_PLANNER_H_
#define IMCF_CORE_PLANNER_H_

#include <string>

#include "common/rng.h"
#include "core/evaluator.h"

namespace imcf {
namespace core {

/// Result of planning one slot.
struct PlanOutcome {
  Solution solution;
  Objectives objectives;
  int iterations = 0;      ///< optimization iterations spent
  bool feasible = false;   ///< F_E(s) <= E_p achieved
  int moves_accepted = 0;  ///< neighborhood moves taken
  int moves_rejected = 0;  ///< neighborhood moves evaluated but discarded
  int repair_drops = 0;    ///< rules dropped by the greedy repair phase
  bool early_exit = false;    ///< search stopped at a zero-error optimum
  bool zero_fallback = false; ///< fell back to the all-zeros (NR) vector

  /// How the search ended, for the planner step's span detail:
  /// "zero_fallback", "early_exit", "infeasible", or "" for a plain finish.
  const char* SearchShape() const {
    if (zero_fallback) return "zero_fallback";
    if (early_exit) return "early_exit";
    return feasible ? "" : "infeasible";
  }
};

/// Strategy interface.
class SlotPlanner {
 public:
  virtual ~SlotPlanner() = default;

  /// Produces an adoption vector for the evaluator's slot. Implementations
  /// must be deterministic given the Rng stream.
  virtual PlanOutcome PlanSlot(const SlotEvaluator& evaluator,
                               Rng* rng) const = 0;

  /// Display name ("EP", "NR", "MR", "SA").
  virtual std::string name() const = 0;
};

}  // namespace core
}  // namespace imcf

#endif  // IMCF_CORE_PLANNER_H_
