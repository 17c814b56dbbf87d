// Static conflict analysis of Meta-Rule-Tables.
//
// §I of the paper motivates IMCF with the deficiencies of unchecked rule
// sets: "rules competing or throwing a clash with each other, rules
// becoming infeasible to be satisfied and/or rules that their behavior
// depends on the output of other rules ... due to the complexity of
// current controllers to autonomously track and monitor a high number of
// rules" (citing firewall policy inference [9]). This analyzer surfaces
// those deficiencies *before* deployment:
//
//   * kClash    — two rules drive the same device during overlapping
//                 hours with different values; the later rule silently
//                 wins, the earlier one is never fully honoured.
//   * kShadowed — same, but with (near-)equal values: the earlier rule is
//                 redundant during the overlap.
//
// Budget infeasibility (the "meta-rule that refers to the monthly energy
// budget ... will conflict with" actuation rules example) is detector (c)
// of firewall/conflict/analyzer.h, which admission runs on every rule set.

#ifndef IMCF_RULES_CONFLICT_H_
#define IMCF_RULES_CONFLICT_H_

#include <string>
#include <vector>

#include "rules/meta_rule.h"

namespace imcf {
namespace rules {

/// Conflict categories.
enum class ConflictKind : uint8_t {
  kClash = 0,
  kShadowed = 1,
};

const char* ConflictKindName(ConflictKind kind);

/// One detected conflict.
struct Conflict {
  ConflictKind kind = ConflictKind::kClash;
  int rule_a = -1;          ///< rule id (the earlier / losing rule)
  int rule_b = -1;          ///< rule id (the later / winning rule), or -1
  int overlap_minutes = 0;  ///< daily overlap of the two windows
  double severity = 0.0;    ///< |value difference|
  std::string description;  ///< human-readable summary
};

/// Minutes per day two daily windows both cover (handles wrapping windows).
int WindowOverlapMinutes(const TimeWindow& a, const TimeWindow& b);

/// Per-device window conflicts: every pair of convenience rules targeting
/// the same (unit, device kind) with overlapping windows, classified as
/// kClash (different values) or kShadowed (values within `value_tolerance`).
std::vector<Conflict> FindWindowConflicts(const MetaRuleTable& table,
                                          double value_tolerance = 1e-9);

/// Formats a conflict report, one line per conflict.
std::string FormatConflicts(const std::vector<Conflict>& conflicts);

}  // namespace rules
}  // namespace imcf

#endif  // IMCF_RULES_CONFLICT_H_
