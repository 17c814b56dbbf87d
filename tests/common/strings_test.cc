#include "common/strings.h"

#include <gtest/gtest.h>

namespace imcf {
namespace {

TEST(SplitTest, BasicAndEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
  EXPECT_EQ(Split("one", ','), (std::vector<std::string>{"one"}));
}

TEST(TrimTest, RemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  hello  "), "hello");
  EXPECT_EQ(Trim("\t x \n"), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("inner space kept"), "inner space kept");
}

TEST(ToLowerTest, AsciiOnly) {
  EXPECT_EQ(ToLower("Set Temperature"), "set temperature");
  EXPECT_EQ(ToLower("ABC123xyz"), "abc123xyz");
}

TEST(StartsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("*/15", "*/"));
  EXPECT_FALSE(StartsWith("15", "*/"));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_FALSE(StartsWith("", "a"));
}

TEST(ParseIntTest, ValidInputs) {
  EXPECT_EQ(ParseInt("42").value(), 42);
  EXPECT_EQ(ParseInt("-7").value(), -7);
  EXPECT_EQ(ParseInt("  11000 ").value(), 11000);
  EXPECT_EQ(ParseInt("0").value(), 0);
}

TEST(ParseIntTest, Rejections) {
  EXPECT_FALSE(ParseInt("").ok());
  EXPECT_FALSE(ParseInt("12.5").ok());
  EXPECT_FALSE(ParseInt("12x").ok());
  EXPECT_FALSE(ParseInt("abc").ok());
  EXPECT_TRUE(ParseInt("99999999999999999999999").status().IsOutOfRange());
}

TEST(ParseDoubleTest, ValidInputs) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.25").value(), 3.25);
  EXPECT_DOUBLE_EQ(ParseDouble("-0.5").value(), -0.5);
  EXPECT_DOUBLE_EQ(ParseDouble(" 775.50 ").value(), 775.5);
  EXPECT_DOUBLE_EQ(ParseDouble("1e3").value(), 1000.0);
}

TEST(ParseDoubleTest, Rejections) {
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("12,5").ok());
  EXPECT_FALSE(ParseDouble("x").ok());
  EXPECT_FALSE(ParseDouble("1.2.3").ok());
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d kWh", 11000), "11000 kWh");
  EXPECT_EQ(StrFormat("%.2f%%", 2.345), "2.35%");
  EXPECT_EQ(StrFormat("%s-%c", "a", 'b'), "a-b");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StrFormatTest, LongOutput) {
  const std::string long_arg(5000, 'x');
  const std::string out = StrFormat("[%s]", long_arg.c_str());
  EXPECT_EQ(out.size(), 5002u);
  EXPECT_EQ(out.front(), '[');
  EXPECT_EQ(out.back(), ']');
}

TEST(StrFormatTest, ResultsAroundTheOnePassBuffer) {
  // N = kStrFormatOnePassChars is the longest result formatted in one pass;
  // N + 1 takes the sized second pass.
  for (size_t len : {kStrFormatOnePassChars - 1, kStrFormatOnePassChars,
                     kStrFormatOnePassChars + 1}) {
    const std::string body(len - 2, 'x');
    const std::string out = StrFormat("<%s>", body.c_str());
    EXPECT_EQ(out.size(), len);
    EXPECT_EQ(out, "<" + body + ">");
  }
}

TEST(StrFormatTest, EmptyResult) {
  EXPECT_EQ(StrFormat("%s", ""), "");
  EXPECT_TRUE(StrFormat("%.0s", "ignored").empty());
}

TEST(JoinTest, Basics) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
  EXPECT_EQ(Join({}, ","), "");
}

}  // namespace
}  // namespace imcf
