#include "report/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "engine/runner.hpp"

namespace abt::report {
namespace {

TEST(Table, PrintsAlignedColumns) {
  Table t({"g", "ratio"});
  t.add_row({"2", "1.500"});
  t.add_row({"16", "2.875"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("ratio"), std::string::npos);
  EXPECT_NE(out.find("2.875"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, CsvEscapesQuotesAndCommas) {
  Table t({"name", "value"});
  t.add_row({"a,b", "say \"hi\""});
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "name,value\n\"a,b\",\"say \"\"hi\"\"\"\n");
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::num(2.0, 3), "2.000");
}

// Every JSON writer shares this escaper; a control character (a cancel
// id can carry one) must not reach the output raw.
TEST(JsonString, EscapesQuotesBackslashesAndControlCharacters) {
  std::ostringstream os;
  engine::write_json_string(os, "a\"b\\c\nd\te\x01");
  EXPECT_EQ(os.str(), "\"a\\\"b\\\\c\\nd\\u0009e\\u0001\"");
}

TEST(RatioStats, TracksMeanMinMax) {
  RatioStats s;
  s.add(1.0);
  s.add(2.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_EQ(s.count(), 3);
}

TEST(RatioStats, EmptyMeanIsZero) {
  RatioStats s;
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

}  // namespace
}  // namespace abt::report
