#include "core/hill_climber.h"

#include <algorithm>
#include <numeric>
#include <queue>
#include <vector>

#include "obs/metrics.h"
#include "obs/tracer.h"

namespace imcf {
namespace core {

HillClimbingPlanner::HillClimbingPlanner(EpOptions options)
    : options_(options) {}

int HillClimbingPlanner::EffectiveTauMax(int n_rules) const {
  if (options_.tau_max > 0) return options_.tau_max;
  return std::max(120, 2 * n_rules);
}

namespace {

// Shared sampling core: fills out[0..k) with k distinct indices in [0, n),
// k < n. Both public overloads draw from the identical rng stream so a
// planner's trajectory does not depend on which buffer type it uses.
void SampleDistinctCore(int n, int k, Rng* rng, int* out) {
  if (4 * k < n) {
    // Rejection sampling: with k a small fraction of n (the usual case —
    // the EP flips up to 8 of dozens-to-hundreds of rules) the expected
    // number of retries is negligible and no scratch allocation is needed.
    int taken = 0;
    while (taken < k) {
      const int candidate = static_cast<int>(rng->UniformInt(0, n - 1));
      if (std::find(out, out + taken, candidate) == out + taken) {
        out[taken++] = candidate;
      }
    }
    return;
  }
  // Dense samples: rejection degrades toward quadratic as k approaches n
  // (the last draws mostly hit already-taken indices), so run a partial
  // Fisher–Yates shuffle instead — exactly k swaps, uniform without
  // retries. Dense implies n <= 4k <= 4·FlipBuffer::kCapacity, so a stack
  // pool covers every caller.
  int pool[4 * FlipBuffer::kCapacity];
  std::iota(pool, pool + n, 0);
  for (int i = 0; i < k; ++i) {
    const int j = static_cast<int>(rng->UniformInt(i, n - 1));
    std::swap(pool[i], pool[j]);
    out[i] = pool[i];
  }
}

}  // namespace

void SampleDistinct(int n, int k, Rng* rng, std::vector<int>* out) {
  out->clear();
  if (k >= n) {
    for (int i = 0; i < n; ++i) out->push_back(i);
    return;
  }
  if (4 * k < n || n <= 4 * FlipBuffer::kCapacity) {
    out->resize(static_cast<size_t>(k));
    SampleDistinctCore(n, k, rng, out->data());
    return;
  }
  // Dense draw over a pool too large for the stack core (k beyond the
  // FlipBuffer clamp): heap Fisher–Yates, same algorithm.
  out->reserve(static_cast<size_t>(k));
  std::vector<int> pool(static_cast<size_t>(n));
  std::iota(pool.begin(), pool.end(), 0);
  for (int i = 0; i < k; ++i) {
    const int j = static_cast<int>(rng->UniformInt(i, n - 1));
    std::swap(pool[static_cast<size_t>(i)], pool[static_cast<size_t>(j)]);
    out->push_back(pool[static_cast<size_t>(i)]);
  }
}

void SampleDistinct(int n, int k, Rng* rng, FlipBuffer* out) {
  if (k >= n) {
    const int m = std::min(n, FlipBuffer::kCapacity);
    for (int i = 0; i < m; ++i) out->data()[i] = i;
    out->set_size(m);
    return;
  }
  SampleDistinctCore(n, k, rng, out->data());
  out->set_size(k);
}

namespace {

// Greedy repair: while the solution exceeds the budget, drop the adopted
// active rule that frees the most energy per unit of convenience lost
// ("dropping certain rules based on preference priority", §I-B). Leaves
// the solution feasible whenever any feasible descendant exists on this
// drop path; the stochastic search then takes over.
//
// Drop selection runs off a lazy max-heap of cached per-rule ratios
// (energy freed / convenience lost, both taken from the rule's cached
// single-flip delta, so the key is independent of the running objectives).
// Dropping a rule only changes the contributions of its own device group,
// so only that group's entries are invalidated and re-keyed; stale heap
// nodes are discarded on pop via version counters. Each drop therefore
// costs O(group + log N) instead of re-delta-evaluating all ~N adopted
// rules — the previous dominant cost of planning large tables. Ties in
// ratio resolve to the earliest active-rule position, the old full-scan's
// first-max order.
void GreedyRepair(const SlotEvaluator& evaluator, double budget,
                  PlanOutcome* outcome) {
  struct Entry {
    int rule;
    int group;
    SlotEvaluator::FlipDelta delta;
    uint32_t version = 0;
    bool dirty = true;
  };
  struct Node {
    double ratio;
    uint32_t entry;
    uint32_t version;
  };
  struct NodeLess {
    bool operator()(const Node& a, const Node& b) const {
      if (a.ratio != b.ratio) return a.ratio < b.ratio;
      return a.entry > b.entry;  // ties: earliest active position on top
    }
  };

  const std::vector<ActiveRule>& active = evaluator.problem().active;
  const int n_entries = static_cast<int>(active.size());
  std::vector<Entry> entries;
  entries.reserve(active.size());
  int max_group = -1;
  for (const ActiveRule& rule : active) {
    entries.push_back({rule.rule_index, rule.group, {}, 0, true});
    max_group = std::max(max_group, rule.group);
  }

  // Counting-sorted group index so invalidation touches exactly the
  // dropped rule's groupmates.
  std::vector<int> group_off(static_cast<size_t>(max_group) + 2, 0);
  for (const Entry& e : entries) ++group_off[static_cast<size_t>(e.group) + 1];
  for (size_t g = 1; g < group_off.size(); ++g) group_off[g] += group_off[g - 1];
  std::vector<int> by_group(entries.size());
  {
    std::vector<int> cursor(group_off.begin(), group_off.end() - 1);
    for (int i = 0; i < n_entries; ++i) {
      by_group[static_cast<size_t>(
          cursor[static_cast<size_t>(entries[static_cast<size_t>(i)].group)]++)] = i;
    }
  }

  std::priority_queue<Node, std::vector<Node>, NodeLess> heap;
  const auto refresh = [&](uint32_t idx) {
    Entry& e = entries[idx];
    e.dirty = false;
    ++e.version;  // orphan any queued node for this entry
    if (!outcome->solution.adopted(static_cast<size_t>(e.rule))) return;
    e.delta = evaluator.SingleFlipDelta(outcome->solution, e.rule);
    const double freed = e.delta.before_energy - e.delta.after_energy;
    if (freed <= 0.0) return;  // dropping a group loser frees nothing
    const double error_cost = e.delta.after_error - e.delta.before_error;
    heap.push({freed / (error_cost + 1e-9), idx, e.version});
  };
  for (int i = 0; i < n_entries; ++i) {
    refresh(static_cast<uint32_t>(i));
  }

  FlipBuffer single_flip;
  single_flip.set_size(1);
  while (!outcome->objectives.FeasibleUnder(budget)) {
    int chosen = -1;
    while (!heap.empty()) {
      const Node top = heap.top();
      Entry& e = entries[top.entry];
      if (top.version != e.version) {
        heap.pop();  // superseded by a refresh
        continue;
      }
      if (e.dirty) {
        heap.pop();
        refresh(top.entry);
        continue;
      }
      heap.pop();
      chosen = static_cast<int>(top.entry);
      break;
    }
    if (chosen < 0) break;  // nothing adopted frees energy

    // Candidate objectives use the same subtract-before-then-add-after
    // order as EvaluateWithFlips, so the running objectives match what a
    // delta evaluation of this drop would have returned.
    Entry& e = entries[static_cast<size_t>(chosen)];
    Objectives candidate = outcome->objectives;
    candidate.energy_kwh -= e.delta.before_energy;
    candidate.error_sum -= e.delta.before_error;
    candidate.energy_kwh += e.delta.after_energy;
    candidate.error_sum += e.delta.after_error;
    single_flip.data()[0] = e.rule;
    evaluator.ApplyFlips(&outcome->solution, single_flip);
    outcome->objectives = candidate;
    ++outcome->repair_drops;
    for (int m = group_off[static_cast<size_t>(e.group)];
         m < group_off[static_cast<size_t>(e.group) + 1]; ++m) {
      entries[static_cast<size_t>(by_group[static_cast<size_t>(m)])].dirty =
          true;
    }
  }
  // Full re-evaluation clears the incremental deltas' float residue.
  outcome->objectives = evaluator.Evaluate(outcome->solution);
  outcome->feasible = outcome->objectives.FeasibleUnder(budget);
}

// The planning loop. The evaluator's delta methods are inline, so the
// move loop below runs without a call per candidate.
PlanOutcome PlanSlotImpl(const SlotEvaluator& evaluator,
                         const EpOptions& options, int tau_max, Rng* rng) {
  const SlotProblem& problem = evaluator.problem();
  const int n = problem.n_rules;
  const double budget = problem.budget_kwh;

  PlanOutcome outcome;
  outcome.solution = Solution::Init(static_cast<size_t>(n), options.init, rng);
  outcome.objectives = evaluator.Evaluate(outcome.solution);
  outcome.feasible = outcome.objectives.FeasibleUnder(budget);
  if (!outcome.feasible && options.greedy_repair) {
    GreedyRepair(evaluator, budget, &outcome);
  }

  const int k = std::min(options.k, FlipBuffer::kCapacity);
  FlipBuffer flips;
  for (int tau = 0; tau < tau_max; ++tau) {
    if (options.early_exit && outcome.feasible &&
        outcome.objectives.error_sum <= 0.0) {
      outcome.early_exit = true;
      break;  // zero-error optimum held; nothing can strictly improve
    }
    // "neighborhoods that involve changing *up to* k components" (§II-B):
    // each move flips j ~ U[1, k] distinct components.
    const int j = 1 + static_cast<int>(rng->UniformInt(0, k - 1));
    SampleDistinct(n, j, rng, &flips);
    const Objectives candidate =
        evaluator.EvaluateWithFlips(outcome.solution, outcome.objectives,
                                    flips);
    const bool candidate_feasible = candidate.FeasibleUnder(budget);
    bool accept;
    if (outcome.feasible) {
      // Algorithm 1 line 13: feasible and strictly better convenience.
      accept = candidate_feasible &&
               candidate.error_sum < outcome.objectives.error_sum;
    } else {
      // Repair phase: march toward feasibility; entering the feasible
      // region is always accepted.
      accept = candidate_feasible ||
               candidate.energy_kwh < outcome.objectives.energy_kwh;
    }
    if (accept) {
      evaluator.ApplyFlips(&outcome.solution, flips);
      outcome.objectives = candidate;
      outcome.feasible = candidate_feasible;
      ++outcome.moves_accepted;
    } else {
      ++outcome.moves_rejected;
    }
    ++outcome.iterations;
  }

  if (!outcome.feasible) {
    // Last resort: the NR vector (drop every convenience rule).
    Solution zeros(static_cast<size_t>(n));
    const Objectives zero_obj = evaluator.Evaluate(zeros);
    if (zero_obj.energy_kwh < outcome.objectives.energy_kwh) {
      outcome.solution = zeros;
      outcome.objectives = zero_obj;
      outcome.feasible = zero_obj.FeasibleUnder(budget);
      outcome.zero_fallback = true;
    }
  }
  return outcome;
}

}  // namespace

PlanOutcome HillClimbingPlanner::PlanSlot(const SlotEvaluator& evaluator,
                                          Rng* rng) const {
  // Under a traced request this nests inside plan.slot; a bare PlanSlot
  // (micro-bench, unit test) has no ambient context and the span is inert.
  IMCF_TRACE_SPAN(search_span, "ep.search", "core");
  const int tau_max = EffectiveTauMax(evaluator.problem().n_rules);
  PlanOutcome outcome = PlanSlotImpl(evaluator, options_, tau_max, rng);

  // Counters are batched per plan: plain-int tallies in the loop above, one
  // relaxed atomic add per metric here. Function-local statics keep the
  // registry lookup off the hot path entirely.
  {
    using obs::Counter;
    auto& reg = obs::MetricRegistry::Default();
    static Counter* const plans = reg.GetCounter(
        "imcf_planner_plans_total", "Slots planned by the hill climber");
    static Counter* const iterations = reg.GetCounter(
        "imcf_planner_iterations_total", "Hill-climbing iterations spent");
    static Counter* const accepted = reg.GetCounter(
        "imcf_planner_moves_accepted_total", "Neighborhood moves accepted");
    static Counter* const rejected = reg.GetCounter(
        "imcf_planner_moves_rejected_total", "Neighborhood moves rejected");
    static Counter* const repairs = reg.GetCounter(
        "imcf_planner_greedy_repair_drops_total",
        "Rules dropped during greedy repair");
    static Counter* const early = reg.GetCounter(
        "imcf_planner_early_exits_total",
        "Plans that stopped early at a zero-error optimum");
    static Counter* const fallbacks = reg.GetCounter(
        "imcf_planner_infeasible_fallbacks_total",
        "Plans that fell back to the all-zeros vector");
    // Skip zero adds: trivial plans (tiny tables, immediate optima) stay at
    // one atomic op so the flush never shows up in BM_PlanSlotHillClimbing.
    plans->Increment();
    if (outcome.iterations != 0) iterations->Increment(outcome.iterations);
    if (outcome.moves_accepted != 0) {
      accepted->Increment(outcome.moves_accepted);
    }
    if (outcome.moves_rejected != 0) {
      rejected->Increment(outcome.moves_rejected);
    }
    if (outcome.repair_drops != 0) repairs->Increment(outcome.repair_drops);
    if (outcome.early_exit) early->Increment();
    if (outcome.zero_fallback) fallbacks->Increment();
  }

  // Search-shape annotations; every value is rng-stream deterministic.
  search_span.Arg("iterations", outcome.iterations);
  search_span.Arg("accepted", outcome.moves_accepted);
  if (outcome.zero_fallback) {
    search_span.Detail("zero_fallback");
  } else if (outcome.early_exit) {
    search_span.Detail("early_exit");
  } else if (!outcome.feasible) {
    search_span.Detail("infeasible");
  }
  return outcome;
}

}  // namespace core
}  // namespace imcf
