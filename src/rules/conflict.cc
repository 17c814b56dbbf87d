#include "rules/conflict.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"

namespace imcf {
namespace rules {

const char* ConflictKindName(ConflictKind kind) {
  switch (kind) {
    case ConflictKind::kClash:
      return "clash";
    case ConflictKind::kShadowed:
      return "shadowed";
  }
  return "?";
}

namespace {

/// Decomposes a (possibly wrapping) daily window into up to two linear
/// [start, end) minute intervals.
int LinearIntervals(const TimeWindow& w, int starts[2], int ends[2]) {
  if (w.start_minute == w.end_minute) return 0;  // empty
  if (w.start_minute < w.end_minute) {
    starts[0] = w.start_minute;
    ends[0] = w.end_minute;
    return 1;
  }
  starts[0] = w.start_minute;
  ends[0] = kMinutesPerDay;
  starts[1] = 0;
  ends[1] = w.end_minute;
  return 2;
}

}  // namespace

int WindowOverlapMinutes(const TimeWindow& a, const TimeWindow& b) {
  int sa[2], ea[2], sb[2], eb[2];
  const int na = LinearIntervals(a, sa, ea);
  const int nb = LinearIntervals(b, sb, eb);
  int overlap = 0;
  for (int i = 0; i < na; ++i) {
    for (int j = 0; j < nb; ++j) {
      overlap += std::max(0, std::min(ea[i], eb[j]) - std::max(sa[i], sb[j]));
    }
  }
  return overlap;
}

std::vector<Conflict> FindWindowConflicts(const MetaRuleTable& table,
                                          double value_tolerance) {
  std::vector<Conflict> conflicts;
  const size_t n = table.convenience_count();
  for (size_t i = 0; i < n; ++i) {
    const MetaRule& a = table.ConvenienceRule(i);
    for (size_t j = i + 1; j < n; ++j) {
      const MetaRule& b = table.ConvenienceRule(j);
      if (a.unit != b.unit || a.TargetKind() != b.TargetKind()) continue;
      const int overlap = WindowOverlapMinutes(a.window, b.window);
      if (overlap == 0) continue;
      Conflict conflict;
      conflict.rule_a = a.id;
      conflict.rule_b = b.id;
      conflict.overlap_minutes = overlap;
      conflict.severity = std::fabs(a.value - b.value);
      if (conflict.severity <= value_tolerance) {
        conflict.kind = ConflictKind::kShadowed;
        conflict.description = StrFormat(
            "'%s' is redundant with '%s' for %d min/day (same value %g)",
            a.description.c_str(), b.description.c_str(), overlap, a.value);
      } else {
        conflict.kind = ConflictKind::kClash;
        conflict.description = StrFormat(
            "'%s' (%g) loses to '%s' (%g) for %d min/day on the same device",
            a.description.c_str(), a.value, b.description.c_str(), b.value,
            overlap);
      }
      conflicts.push_back(std::move(conflict));
    }
  }
  return conflicts;
}

std::string FormatConflicts(const std::vector<Conflict>& conflicts) {
  if (conflicts.empty()) return "no conflicts detected\n";
  std::string out;
  for (const Conflict& conflict : conflicts) {
    out += StrFormat("[%s] %s\n", ConflictKindName(conflict.kind),
                     conflict.description.c_str());
  }
  return out;
}

}  // namespace rules
}  // namespace imcf
