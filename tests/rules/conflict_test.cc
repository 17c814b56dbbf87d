#include "rules/conflict.h"

#include <gtest/gtest.h>

namespace imcf {
namespace rules {
namespace {

MetaRule TempRule(const char* description, int start_h, int end_h,
                  double value, int unit = 0) {
  MetaRule rule;
  rule.description = description;
  rule.window = TimeWindow{start_h * 60, end_h * 60};
  rule.action = RuleAction::kSetTemperature;
  rule.value = value;
  rule.unit = unit;
  return rule;
}

TEST(WindowOverlapTest, LinearWindows) {
  EXPECT_EQ(WindowOverlapMinutes({60, 420}, {240, 540}), 180);
  EXPECT_EQ(WindowOverlapMinutes({60, 420}, {420, 540}), 0);  // adjacent
  EXPECT_EQ(WindowOverlapMinutes({60, 420}, {500, 540}), 0);
  EXPECT_EQ(WindowOverlapMinutes({0, 1440}, {600, 660}), 60);
  EXPECT_EQ(WindowOverlapMinutes({100, 200}, {100, 200}), 100);
}

TEST(WindowOverlapTest, WrappingWindows) {
  // 22:00-06:00 vs 05:00-09:00 -> 60 minutes (05:00-06:00).
  EXPECT_EQ(WindowOverlapMinutes({22 * 60, 6 * 60}, {5 * 60, 9 * 60}), 60);
  // Two wrapping windows: 22:00-06:00 vs 23:00-01:00 -> 120.
  EXPECT_EQ(WindowOverlapMinutes({22 * 60, 6 * 60}, {23 * 60, 1 * 60}), 120);
  // Empty window overlaps nothing.
  EXPECT_EQ(WindowOverlapMinutes({300, 300}, {0, 1440}), 0);
}

TEST(ConflictTest, FlatTableIsClean) {
  const auto conflicts = FindWindowConflicts(FlatMrt());
  EXPECT_TRUE(conflicts.empty()) << FormatConflicts(conflicts);
}

TEST(ConflictTest, DetectsClash) {
  MetaRuleTable table;
  ASSERT_TRUE(table.Add(TempRule("Day Heat", 8, 16, 22.0)).ok());
  ASSERT_TRUE(table.Add(TempRule("Lunch Boost", 12, 14, 25.0)).ok());
  const auto conflicts = FindWindowConflicts(table);
  ASSERT_EQ(conflicts.size(), 1u);
  EXPECT_EQ(conflicts[0].kind, ConflictKind::kClash);
  EXPECT_EQ(conflicts[0].rule_a, 0);
  EXPECT_EQ(conflicts[0].rule_b, 1);
  EXPECT_EQ(conflicts[0].overlap_minutes, 120);
  EXPECT_DOUBLE_EQ(conflicts[0].severity, 3.0);
}

TEST(ConflictTest, DetectsShadowedRule) {
  MetaRuleTable table;
  ASSERT_TRUE(table.Add(TempRule("Morning", 6, 12, 22.0)).ok());
  ASSERT_TRUE(table.Add(TempRule("Morning Duplicate", 8, 10, 22.0)).ok());
  const auto conflicts = FindWindowConflicts(table);
  ASSERT_EQ(conflicts.size(), 1u);
  EXPECT_EQ(conflicts[0].kind, ConflictKind::kShadowed);
}

TEST(ConflictTest, DifferentDevicesOrUnitsDoNotConflict) {
  MetaRuleTable table;
  ASSERT_TRUE(table.Add(TempRule("Heat A", 8, 16, 22.0, /*unit=*/0)).ok());
  ASSERT_TRUE(table.Add(TempRule("Heat B", 8, 16, 25.0, /*unit=*/1)).ok());
  MetaRule light;
  light.description = "Light";
  light.window = TimeWindow{8 * 60, 16 * 60};
  light.action = RuleAction::kSetLight;
  light.value = 40.0;
  ASSERT_TRUE(table.Add(light).ok());
  EXPECT_TRUE(FindWindowConflicts(table).empty());
}

TEST(ConflictTest, VariedDormTablesHaveClashes) {
  // Uniform random window shifts push same-device windows into overlap.
  const MetaRuleTable dorms = VariedMrt(50, 1.0, 13);
  const auto conflicts = FindWindowConflicts(dorms);
  EXPECT_GT(conflicts.size(), 10u);
  for (const Conflict& conflict : conflicts) {
    EXPECT_GT(conflict.overlap_minutes, 0);
  }
}

TEST(FormatConflictsTest, Readable) {
  EXPECT_EQ(FormatConflicts({}), "no conflicts detected\n");
  MetaRuleTable table;
  ASSERT_TRUE(table.Add(TempRule("A", 8, 16, 22.0)).ok());
  ASSERT_TRUE(table.Add(TempRule("B", 12, 14, 25.0)).ok());
  const std::string report = FormatConflicts(FindWindowConflicts(table));
  EXPECT_NE(report.find("[clash]"), std::string::npos);
  EXPECT_NE(report.find("'A'"), std::string::npos);
}

TEST(ConflictKindTest, Names) {
  EXPECT_STREQ(ConflictKindName(ConflictKind::kClash), "clash");
  EXPECT_STREQ(ConflictKindName(ConflictKind::kShadowed), "shadowed");
}

}  // namespace
}  // namespace rules
}  // namespace imcf
