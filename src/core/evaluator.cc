#include "core/evaluator.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "obs/accounting/cost_ledger.h"
#include "obs/metrics.h"

namespace imcf {
namespace core {

double NormalizedError(devices::CommandType type, double desired,
                       double actual) {
  if (type == devices::CommandType::kSetTemperature) {
    // Thermal discomfort is two-sided: both under- and over-shooting the
    // setpoint is inconvenient. Deviations inside the comfort deadzone are
    // imperceptible.
    const double gap = std::fabs(desired - actual) - kTempComfortZoneC;
    return Clamp(gap / kTempErrorRange, 0.0, 1.0);
  }
  // Luminance comfort is one-sided: a room brighter than the requested
  // level (e.g. daylight exceeding a 30% dimmer setting) costs nothing,
  // only a shortfall does.
  return Clamp((desired - actual) / kLightErrorRange, 0.0, 1.0);
}


SlotEvaluator::SlotEvaluator(const SlotProblem* problem, PlanArena* arena)
    : problem_(problem) {
  PlanArena& ws = arena != nullptr ? *arena : owned_arena_;
  n_rules_ = problem->n_rules;
  n_groups_ = static_cast<int32_t>(problem->groups.size());
  n_members_ = static_cast<int32_t>(problem->active.size());
  const size_t n_groups = static_cast<size_t>(n_groups_);
  const size_t n_members = static_cast<size_t>(n_members_);

  // A lent arena holds the previous build's contents: every column is
  // either refilled here or fully overwritten below before it is read.
  ws.group_off.assign(n_groups + 1, 0);
  ws.member_rule.resize(n_members);
  ws.group_of_rule.assign(static_cast<size_t>(std::max(n_rules_, 1)), -1);
  ws.contrib_energy.resize(n_members + n_groups);
  ws.contrib_error.resize(n_members + n_groups);
  ws.winner_pos.resize(n_groups);
  // mirror_size_ == -1: every group is stale until the first Evaluate.
  ws.mirror.assign(
      std::max<size_t>(static_cast<size_t>(n_rules_ + 63) / 64, 1), 0);
  ws.member_active.resize(n_members);

  int32_t* const group_off = ws.group_off.data();
  int32_t* const member_rule = ws.member_rule.data();
  int32_t* const group_of_rule = ws.group_of_rule.data();
  double* const contrib_energy = ws.contrib_energy.data();
  double* const contrib_error = ws.contrib_error.data();
  int32_t* const member_active = ws.member_active.data();

  // CSR member columns via counting sort, then per-group ordering by
  // rule_index descending so winner scans early-exit at the first adopted
  // member.
  for (const ActiveRule& rule : problem->active) {
    ++group_off[rule.group + 1];
  }
  for (int32_t g = 0; g < n_groups_; ++g) {
    group_off[g + 1] += group_off[g];
  }
  ws.cursor.assign(ws.group_off.begin(), ws.group_off.end() - 1);
  for (size_t i = 0; i < problem->active.size(); ++i) {
    const ActiveRule& rule = problem->active[i];
    member_active[ws.cursor[static_cast<size_t>(rule.group)]++] =
        static_cast<int32_t>(i);
    group_of_rule[rule.rule_index] = rule.group;
  }
  for (int32_t g = 0; g < n_groups_; ++g) {
    std::sort(member_active + group_off[g], member_active + group_off[g + 1],
              [problem](int32_t a, int32_t b) {
                return problem->active[static_cast<size_t>(a)].rule_index >
                       problem->active[static_cast<size_t>(b)].rule_index;
              });
  }
  for (int32_t m = 0; m < n_members_; ++m) {
    member_rule[m] =
        problem->active[static_cast<size_t>(member_active[m])].rule_index;
  }

  // Pre-tabulate every group contribution: a group's energy and error
  // depend only on which member wins (losers and non-adopted members are
  // both measured against the winner's setpoint; with no winner every
  // member contributes its drop error). Errors accumulate in member order.
  for (int32_t g = 0; g < n_groups_; ++g) {
    const size_t base = static_cast<size_t>(group_off[g] + g);
    double none_error = 0.0;
    for (int32_t m = group_off[g]; m < group_off[g + 1]; ++m) {
      none_error +=
          problem->active[static_cast<size_t>(member_active[m])].drop_error;
    }
    contrib_energy[base] = 0.0;
    contrib_error[base] = none_error;
    for (int32_t w = group_off[g]; w < group_off[g + 1]; ++w) {
      const ActiveRule& winner =
          problem->active[static_cast<size_t>(member_active[w])];
      double error = 0.0;
      for (int32_t m = group_off[g]; m < group_off[g + 1]; ++m) {
        if (m == w) continue;  // the winner holds its setpoint
        const ActiveRule& rule =
            problem->active[static_cast<size_t>(member_active[m])];
        error += NormalizedError(rule.type, rule.desired, winner.desired);
      }
      const size_t idx = base + 1 + static_cast<size_t>(w - group_off[g]);
      contrib_energy[idx] = winner.energy_kwh;
      contrib_error[idx] = error;
    }
  }

  group_off_ = group_off;
  member_rule_ = member_rule;
  group_of_rule_ = group_of_rule;
  contrib_energy_ = contrib_energy;
  contrib_error_ = contrib_error;
  winner_pos_ = ws.winner_pos.data();
  mirror_ = ws.mirror.data();
}

SlotEvaluator::~SlotEvaluator() {
  // Evaluators are per-(thread, slot), so flushing once at destruction
  // turns millions of plain-int bumps into four relaxed atomic adds.
  using obs::Counter;
  auto& reg = obs::MetricRegistry::Default();
  static Counter* const hits = reg.GetCounter(
      "imcf_evaluator_cache_hits_total",
      "Touched-group contributions served from the incremental cache");
  static Counter* const misses = reg.GetCounter(
      "imcf_evaluator_cache_misses_total",
      "Touched-group contributions recomputed via winner rescan");
  static Counter* const fulls = reg.GetCounter(
      "imcf_evaluator_full_evals_total", "Full Evaluate() passes");
  static Counter* const applies = reg.GetCounter(
      "imcf_evaluator_apply_flips_total", "Accepted moves applied");
  if (cache_stats_.cache_hits != 0) hits->Increment(cache_stats_.cache_hits);
  if (cache_stats_.cache_misses != 0) {
    misses->Increment(cache_stats_.cache_misses);
  }
  if (cache_stats_.full_evals != 0) fulls->Increment(cache_stats_.full_evals);
  if (cache_stats_.apply_flips != 0) {
    applies->Increment(cache_stats_.apply_flips);
  }
  // Per-tenant attribution: evaluators destruct inside the planning scope,
  // so the thread's ambient cost sink (if any) charges the flip
  // evaluations to the tenant being planned. Deterministic: these are
  // pure counts of planner work, independent of worker count.
  obs::CostAddFlipEvals(cache_stats_.cache_hits + cache_stats_.cache_misses +
                        cache_stats_.full_evals);
}

Objectives SlotEvaluator::Evaluate(const Solution& s) const {
  ++cache_stats_.full_evals;
  Objectives total;
  total.energy_kwh = problem_->base_energy_kwh;
  for (int32_t g = 0; g < n_groups_; ++g) {
    const int32_t pos = WinnerPos(s, g);
    winner_pos_[g] = pos;
    const size_t idx = ContribIndex(g, pos);
    total.energy_kwh += contrib_energy_[idx];
    total.error_sum += contrib_error_[idx];
  }
  SyncMirror(s);
  return total;
}

void SlotEvaluator::SyncMirror(const Solution& s) const {
  const size_t mirror_words = static_cast<size_t>(n_rules_ + 63) / 64;
  const size_t limit = std::min(s.size(), static_cast<size_t>(n_rules_));
  const uint8_t* bytes = s.data();
  size_t r = 0;
  size_t w = 0;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  // SWAR pack: the solution stores one 0/1 byte per rule. For an 8-byte
  // group, (bytes & 0x0101..01) * 0x0102040810204080 places byte j's low
  // bit at product bit 56 + j, so the top byte of the product is the
  // 8-bit pack of the group (little-endian load order == rule order).
  // A branchy per-bit loop here made full evaluation measurably slower;
  // this is ~9 ops per 8 rules.
  constexpr uint64_t kLowBits = 0x0101010101010101ULL;
  constexpr uint64_t kPackMul = 0x0102040810204080ULL;
  for (; r + 64 <= limit; r += 64, ++w) {
    uint64_t word = 0;
    for (int g = 0; g < 8; ++g) {
      uint64_t b8;
      std::memcpy(&b8, bytes + r + 8 * static_cast<size_t>(g), 8);
      word |= (((b8 & kLowBits) * kPackMul) >> 56) << (8 * g);
    }
    mirror_[w] = word;
  }
#endif
  // Scalar tail (and the whole range on big-endian targets).
  for (size_t t = w; t < std::max<size_t>(mirror_words, 1); ++t) {
    mirror_[t] = 0;
  }
  for (; r < limit; ++r) {
    if (bytes[r] != 0) mirror_[r >> 6] |= uint64_t{1} << (r & 63);
  }
  mirror_size_ = static_cast<int64_t>(s.size());
}

Objectives SlotEvaluator::EvaluateFlippedFull(
    const Solution& s, std::span<const int> flips) const {
  Objectives total;
  total.energy_kwh = problem_->base_energy_kwh;
  for (int32_t g = 0; g < n_groups_; ++g) {
    const size_t idx = ContribIndex(g, WinnerPosFlipped(s, g, flips));
    total.energy_kwh += contrib_energy_[idx];
    total.error_sum += contrib_error_[idx];
  }
  return total;
}

Objectives SlotEvaluator::NoRuleObjectives() const {
  Objectives out;
  out.energy_kwh = problem_->base_energy_kwh;
  for (const ActiveRule& rule : problem_->active) {
    out.error_sum += rule.drop_error;
  }
  return out;
}

Objectives SlotEvaluator::AllRulesObjectives() const {
  const Solution all_ones(static_cast<size_t>(n_rules_), 1);
  return EvaluateFlippedFull(all_ones, {});
}

}  // namespace core
}  // namespace imcf
