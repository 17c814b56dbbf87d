// Reusable storage for the slot evaluator's columns.
//
// A SlotEvaluator flattens its SlotProblem into the parallel columns below
// (their layout is documented in core/evaluator.h). Building an evaluator
// on a lent PlanArena refills these vectors in place, so a caller that
// plans slot after slot — Simulator::Run keeps one per run — reallocates
// only when a slot outgrows every earlier one.
//
// Lifetime rule: an evaluator points into the arena it was built on, so
// building a second evaluator on the same arena invalidates the first, as
// does destroying the arena. Thread-safety: none; one arena per thread.
//
// The name "arena" and this header outlive the bump allocator they once
// held because the wire benchmark (perfbench/) still includes the header,
// constructs a PlanArena and lends it to Simulator::Run. Renaming the type
// and dropping Run's parameter wait for a change to that benchmark.

#ifndef IMCF_CORE_PLAN_ARENA_H_
#define IMCF_CORE_PLAN_ARENA_H_

#include <cstdint>
#include <vector>

namespace imcf {
namespace core {

/// The evaluator's columns plus its construction scratch; contents are
/// stale between builds and meaningful only to the evaluator built last.
struct PlanArena {
  std::vector<int32_t> group_off;
  std::vector<int32_t> member_rule;
  std::vector<int32_t> group_of_rule;
  std::vector<double> contrib_energy;
  std::vector<double> contrib_error;
  std::vector<int32_t> winner_pos;
  std::vector<uint64_t> mirror;
  // Construction scratch: member position -> active-rule id, and the
  // per-group write cursors of the counting sort.
  std::vector<int32_t> member_active;
  std::vector<int32_t> cursor;
};

}  // namespace core
}  // namespace imcf

#endif  // IMCF_CORE_PLAN_ARENA_H_
