#include "xbar/layout.hpp"

#include <gtest/gtest.h>

#include "logic/sop_parser.hpp"

namespace mcx {
namespace {

TEST(TwoLevelLayout, BuildKeepsCoverAndFm) {
  const Cover c = parseSop("x1 x2 + !x3");
  const TwoLevelLayout layout = buildTwoLevelLayout(c);
  EXPECT_EQ(layout.cover, c);
  EXPECT_EQ(layout.fm.rows(), 3u);
  EXPECT_EQ(layout.dims().area(), twoLevelDims(c).area());
}

TEST(TwoLevelLayout, AsciiDiagramMentionsGeometry) {
  const Cover c = parseSop("x1 + x2");
  const std::string s = buildTwoLevelLayout(c).toAsciiDiagram();
  EXPECT_NE(s.find("x1"), std::string::npos);
  EXPECT_NE(s.find("!O1"), std::string::npos);
  EXPECT_NE(s.find("area=18"), std::string::npos);
  EXPECT_NE(s.find('#'), std::string::npos);
}

}  // namespace
}  // namespace mcx
