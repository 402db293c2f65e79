#include "util/text_table.hpp"

#include <gtest/gtest.h>

namespace mcx {
namespace {

TEST(TextTable, RendersHeaderAndRows) {
  TextTable t({"Name", "Area"});
  t.addRow({"rd53", "544"});
  t.addRow({"alu4", "25652"});
  const std::string s = t.toString();
  EXPECT_NE(s.find("Name"), std::string::npos);
  EXPECT_NE(s.find("rd53"), std::string::npos);
  EXPECT_NE(s.find("25652"), std::string::npos);
  EXPECT_EQ(t.rowCount(), 2u);
}

TEST(TextTable, PadsShortRows) {
  TextTable t({"a", "b", "c"});
  t.addRow({"1"});
  EXPECT_NE(t.toString().find('1'), std::string::npos);
}

TEST(TextTable, NumFormatsPrecision) {
  EXPECT_EQ(TextTable::num(1.23456, 2), "1.23");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

TEST(TextTable, PercentFormatsRatio) {
  EXPECT_EQ(TextTable::percent(0.98), "98%");
  EXPECT_EQ(TextTable::percent(0.125, 1), "12.5%");
}

}  // namespace
}  // namespace mcx
