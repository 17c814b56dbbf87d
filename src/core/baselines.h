// Baseline planners (Section II-C of the paper).
//
//  * No-Rule (NR): "ignores all rules in the Meta-Rule-Table and does not
//    modify the behavior of the autonomous devices" — F_E is 0 (beyond
//    necessity load) and the convenience error is maximal.
//  * Meta-Rule (MR): "ignores the energy consumption and executes all rules
//    greedily" — F_CE is 0 and energy is maximal; the budget is not
//    consulted, so MR plans may be infeasible by design.

#ifndef IMCF_CORE_BASELINES_H_
#define IMCF_CORE_BASELINES_H_

#include "core/planner.h"

namespace imcf {
namespace core {

/// Drops every convenience rule.
class NoRulePlanner : public SlotPlanner {
 public:
  PlanOutcome PlanSlot(const SlotEvaluator& evaluator,
                       Rng* rng) const override;
  std::string name() const override { return "NR"; }
};

/// Adopts every convenience rule, regardless of the budget.
class MetaRulePlanner : public SlotPlanner {
 public:
  PlanOutcome PlanSlot(const SlotEvaluator& evaluator,
                       Rng* rng) const override;
  std::string name() const override { return "MR"; }
};

}  // namespace core
}  // namespace imcf

#endif  // IMCF_CORE_BASELINES_H_
