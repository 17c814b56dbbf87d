// Slot evaluation: computes F_E (Eq. 2) and F_CE (Eq. 1) of a solution on
// a SlotProblem (Alg. 1 lines 9/12).
//
// Semantics per device group: among the group's *adopted* active rules, the
// one latest in the table drives the device (later rules override earlier
// ones, as in openHAB rule files); its energy is charged. Every active rule
// contributes a convenience error measured against the value the device
// actually exhibits — the winner's setpoint if one exists, otherwise the
// ambient value. With the paper's Table II (disjoint windows per device)
// every group has at most one active rule, and this reduces exactly to the
// additive form of Eqs. (1)-(2).
//
// Layout: the group/member/contribution tables are flattened into
// contiguous parallel columns held in a PlanArena's vectors, so the hot
// loops are linear sweeps over packed memory:
//
//   group_off_[g]..group_off_[g+1]   CSR range of group g's members
//   member_rule_[m]                  rule_index of member m (descending
//                                    within each group: winner scans
//                                    early-exit at the first adopted bit)
//   group_of_rule_[r]                group of rule r, or -1 if inactive
//   contrib_energy_/contrib_error_   winner-contribution columns; group g's
//                                    entries start at group_off_[g] + g
//                                    (no-winner entry first, then one per
//                                    member position)
//   winner_pos_/mirror_              incremental cache: current winner per
//                                    group plus a packed bitset mirror of
//                                    the synced solution
//
// Numerics: full evaluation sums the groups' contributions in group order
// onto the base energy. The delta path (EvaluateWithFlips / SingleFlipDelta)
// subtracts the touched groups' "before" contributions from the base, then
// adds their "after" contributions, so its result can differ from a full
// evaluation of the same solution in the last ulps.
//
// The delta methods are defined inline here so the planners' move loops
// inline them.
//
// Thread-safety: the incremental cache is internal mutable state, so an
// evaluator instance must not be shared across threads. Construction is
// cheap — the simulator builds one evaluator per slot on its run's arena
// and never shares them.

#ifndef IMCF_CORE_EVALUATOR_H_
#define IMCF_CORE_EVALUATOR_H_

#include <cstdint>
#include <span>

#include "core/plan_arena.h"
#include "core/slot_problem.h"
#include "core/solution.h"

namespace imcf {
namespace core {

/// The slot-evaluation kernel. Its columns live in the vectors of a
/// PlanArena: a lent one (refilled in place, keeping its capacity) or,
/// when `arena` is null, one the evaluator owns. Building a second
/// evaluator on a lent arena invalidates the first.
class SlotEvaluator {
 public:
  /// Tally of the incremental cache's behaviour over this evaluator's
  /// lifetime. Plain (non-atomic) ints — the evaluator is single-threaded
  /// by contract; totals flush to the imcf_evaluator_*_total counters on
  /// destruction.
  struct CacheStats {
    int64_t cache_hits = 0;    ///< touched-group "before" read from cache
    int64_t cache_misses = 0;  ///< touched group was stale, winner rescan
    int64_t full_evals = 0;    ///< Evaluate() full passes (cache syncs)
    int64_t apply_flips = 0;   ///< accepted moves applied via ApplyFlips()
  };

  /// Contribution change of flipping one rule on top of a solution: the
  /// touched group's contribution before and after the flip. Applying it
  /// with the same subtract-before-then-add-after order as
  /// EvaluateWithFlips reproduces that call bit-for-bit, which is what the
  /// greedy repair's delta cache relies on.
  struct FlipDelta {
    double before_energy = 0.0;
    double after_energy = 0.0;
    double before_error = 0.0;
    double after_error = 0.0;
  };

  explicit SlotEvaluator(const SlotProblem* problem,
                         PlanArena* arena = nullptr);

  /// Flushes accumulated CacheStats to the default metric registry.
  ~SlotEvaluator();

  SlotEvaluator(const SlotEvaluator&) = delete;
  SlotEvaluator& operator=(const SlotEvaluator&) = delete;

  /// Full evaluation of `s` on the slot. Also resynchronizes the
  /// incremental cache to `s` (Evaluate is the cache's sync point).
  Objectives Evaluate(const Solution& s) const;

  /// Objectives of the empty (all-zeros) solution: ambient everywhere.
  Objectives NoRuleObjectives() const;

  /// Objectives of the full (all-ones) solution.
  Objectives AllRulesObjectives() const;

  /// Whether solution coordinate `rule_index` is active in this slot.
  bool IsActive(int rule_index) const {
    return rule_index >= 0 && rule_index < n_rules_ &&
           group_of_rule_[rule_index] >= 0;
  }

  const SlotProblem& problem() const { return *problem_; }

  /// Objectives after flipping `flips` (indices into the solution vector)
  /// on top of `s`, given `s`'s objectives `base`. Only the groups touched
  /// by the flipped rules are recomputed; their "before" contributions come
  /// from the incremental cache when it is fresh for the group and from a
  /// winner rescan otherwise. The "after" winner is found by scanning with
  /// the flips applied virtually.
  Objectives EvaluateWithFlips(const Solution& s, const Objectives& base,
                               std::span<const int> flips) const {
    int32_t touched[kMaxTouchedGroups];
    const int n_touched = CollectTouched(flips, touched);
    if (n_touched == kMaxTouchedGroups) {
      return EvaluateFlippedFull(s, flips);
    }
    Objectives out = base;
    for (int i = 0; i < n_touched; ++i) {
      const int32_t g = touched[i];
      const size_t idx = ContribIndex(g, CachedWinnerPos(s, g));
      out.energy_kwh -= contrib_energy_[idx];
      out.error_sum -= contrib_error_[idx];
    }
    for (int i = 0; i < n_touched; ++i) {
      const int32_t g = touched[i];
      const size_t idx = ContribIndex(g, WinnerPosFlipped(s, g, flips));
      out.energy_kwh += contrib_energy_[idx];
      out.error_sum += contrib_error_[idx];
    }
    return out;
  }

  /// The touched group's contribution before/after flipping `rule_index`
  /// alone on top of `s` (zero deltas when the rule is inactive). Same
  /// cache policy as EvaluateWithFlips.
  FlipDelta SingleFlipDelta(const Solution& s, int rule_index) const {
    FlipDelta delta;
    const int32_t g = group_of_rule_[rule_index];
    if (g < 0) return delta;  // inactive: nothing changes
    const size_t before = ContribIndex(g, CachedWinnerPos(s, g));
    const int one[1] = {rule_index};
    const size_t after =
        ContribIndex(g, WinnerPosFlipped(s, g, std::span<const int>(one)));
    delta.before_energy = contrib_energy_[before];
    delta.before_error = contrib_error_[before];
    delta.after_energy = contrib_energy_[after];
    delta.after_error = contrib_error_[after];
    return delta;
  }

  /// Permanently applies `flips` to `*s` — the accept step of a local
  /// search move — and updates the incremental cache for the touched
  /// groups, so subsequent EvaluateWithFlips calls stay on the cached path.
  void ApplyFlips(Solution* s, std::span<const int> flips) const {
    ++cache_stats_.apply_flips;
    for (int rule_index : flips) s->flip(static_cast<size_t>(rule_index));
    if (mirror_size_ != static_cast<int64_t>(s->size())) {
      // The cache was never synchronized with a solution of this shape;
      // Evaluate() is the designated sync point.
      Evaluate(*s);
      return;
    }
    int32_t touched[kMaxTouchedGroups];
    const int n_touched = CollectTouched(flips, touched);
    if (n_touched == kMaxTouchedGroups) {
      // More distinct groups than the stack dedup tracks: resync wholesale.
      Evaluate(*s);
      return;
    }
    for (int i = 0; i < n_touched; ++i) {
      const int32_t g = touched[i];
      for (int32_t m = group_off_[g]; m < group_off_[g + 1]; ++m) {
        const int32_t r = member_rule_[m];
        const uint64_t bit = uint64_t{1} << (r & 63);
        if (s->adopted(static_cast<size_t>(r))) {
          mirror_[r >> 6] |= bit;
        } else {
          mirror_[r >> 6] &= ~bit;
        }
      }
      winner_pos_[g] = WinnerPos(*s, g);
    }
  }

 private:
  /// Distinct touched groups a delta evaluation tracks on the stack; a
  /// flip set reaching this many falls back to a full rescan.
  static constexpr int kMaxTouchedGroups = 16;

  /// Rebuilds the packed adoption mirror from `s` (SWAR byte-pack on
  /// little-endian targets, scalar otherwise) and stamps mirror_size_.
  void SyncMirror(const Solution& s) const;

  /// Index into the contribution columns of group g's entry for winner
  /// position `pos` (-1 selects the no-winner entry).
  size_t ContribIndex(int32_t g, int32_t pos) const {
    return static_cast<size_t>(group_off_[g] + g + 1 + pos);
  }

  /// Dedups the groups of the active rules in `flips` into `out` (capacity
  /// kMaxTouchedGroups); returns the count, saturating at the capacity.
  int CollectTouched(std::span<const int> flips, int32_t* out) const {
    int n_touched = 0;
    for (int rule_index : flips) {
      const int32_t g = group_of_rule_[rule_index];
      if (g < 0) continue;
      // Branchless dedup scan: the membership test is data-dependent and
      // would mispredict; accumulating matches is cheaper than breaking.
      unsigned seen = 0;
      for (int i = 0; i < n_touched; ++i) {
        seen |= static_cast<unsigned>(out[i] == g);
      }
      if (seen == 0 && n_touched < kMaxTouchedGroups) out[n_touched++] = g;
    }
    return n_touched;
  }

  /// First adopted member of `g` under `s` (position within the group), or
  /// -1. Members are ordered by rule_index descending.
  int32_t WinnerPos(const Solution& s, int32_t g) const {
    for (int32_t m = group_off_[g]; m < group_off_[g + 1]; ++m) {
      if (s.adopted(static_cast<size_t>(member_rule_[m]))) {
        return m - group_off_[g];
      }
    }
    return -1;
  }

  /// WinnerPos of `g` under `s`, from the cache when it is fresh for the
  /// group and by rescan otherwise; tallies the hit or miss.
  int32_t CachedWinnerPos(const Solution& s, int32_t g) const {
    if (GroupFresh(s, g)) {
      ++cache_stats_.cache_hits;
      return winner_pos_[g];
    }
    ++cache_stats_.cache_misses;
    return WinnerPos(s, g);
  }

  /// WinnerPos with `flips` applied virtually on top of `s`.
  int32_t WinnerPosFlipped(const Solution& s, int32_t g,
                           std::span<const int> flips) const {
    for (int32_t m = group_off_[g]; m < group_off_[g + 1]; ++m) {
      const int32_t r = member_rule_[m];
      // Flip indices are distinct, so at most one entry matches r; an
      // accumulated branchless membership test avoids the mispredicted
      // early break that dominated this scan at large flip counts.
      unsigned toggled = 0;
      for (int flip : flips) {
        toggled |= static_cast<unsigned>(flip == r);
      }
      if (s.adopted(static_cast<size_t>(r)) ^ (toggled != 0)) {
        return m - group_off_[g];
      }
    }
    return -1;
  }

  /// Whether the mirror agrees with `s` on every member bit of `g`.
  bool GroupFresh(const Solution& s, int32_t g) const {
    if (mirror_size_ != static_cast<int64_t>(s.size())) return false;
    for (int32_t m = group_off_[g]; m < group_off_[g + 1]; ++m) {
      const int32_t r = member_rule_[m];
      const bool mirrored = (mirror_[r >> 6] >> (r & 63)) & 1;
      if (mirrored != s.adopted(static_cast<size_t>(r))) return false;
    }
    return true;
  }

  /// Full evaluation of `s` with `flips` applied virtually; cache state is
  /// left untouched (the degenerate many-groups path).
  Objectives EvaluateFlippedFull(const Solution& s,
                                 std::span<const int> flips) const;

  const SlotProblem* problem_;  // not owned
  PlanArena owned_arena_;       // the columns' home when none was lent

  int32_t n_rules_ = 0;
  int32_t n_groups_ = 0;
  int32_t n_members_ = 0;

  // Immutable columns (arena vectors' data, filled once in the
  // constructor).
  const int32_t* group_off_ = nullptr;      // [n_groups_ + 1]
  const int32_t* member_rule_ = nullptr;    // [n_members_]
  const int32_t* group_of_rule_ = nullptr;  // [max(n_rules_, 1)]
  const double* contrib_energy_ = nullptr;  // [n_members_ + n_groups_]
  const double* contrib_error_ = nullptr;   // [n_members_ + n_groups_]

  // Incremental cache (arena vectors' data, mutated in const methods; the
  // evaluator is single-threaded by contract).
  int32_t* winner_pos_ = nullptr;  // [n_groups_]
  uint64_t* mirror_ = nullptr;     // [ceil(n_rules_ / 64)]
  /// Size of the solution the mirror was synced against, or -1 before the
  /// first Evaluate (every group reads as stale until then).
  mutable int64_t mirror_size_ = -1;
  mutable CacheStats cache_stats_;
};

}  // namespace core
}  // namespace imcf

#endif  // IMCF_CORE_EVALUATOR_H_
