#include "logic/sop_parser.hpp"

#include <gtest/gtest.h>

#include "logic/truth_table.hpp"
#include "util/error.hpp"

namespace mcx {
namespace {

TEST(SopParser, ParsesFig3Function) {
  // The paper's running example: f = x1 + x2 + x3 + x4 + x5 x6 x7 x8.
  const Cover c = parseSop("x1 + x2 + x3 + x4 + x5 x6 x7 x8");
  EXPECT_EQ(c.nin(), 8u);
  EXPECT_EQ(c.nout(), 1u);
  EXPECT_EQ(c.size(), 5u);
  EXPECT_EQ(c.cube(4).literalCount(), 4u);
}

TEST(SopParser, NegationStyles) {
  const Cover a = parseSop("!x1 x2");
  const Cover b = parseSop("~x1 x2");
  const Cover c = parseSop("x1' x2");
  EXPECT_EQ(TruthTable::fromCover(a), TruthTable::fromCover(b));
  EXPECT_EQ(TruthTable::fromCover(a), TruthTable::fromCover(c));
  EXPECT_EQ(a.cube(0).lit(0), Lit::Neg);
  EXPECT_EQ(a.cube(0).lit(1), Lit::Pos);
}

TEST(SopParser, DoubleNegationCancels) {
  const Cover c = parseSop("!x1'");
  EXPECT_EQ(c.cube(0).lit(0), Lit::Pos);
}

TEST(SopParser, ExplicitArityPadsVariables) {
  const Cover c = parseSop("x1", 4);
  EXPECT_EQ(c.nin(), 4u);
}

TEST(SopParser, StarsAsAndSeparators) {
  const Cover c = parseSop("x1*x2 + x3");
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.cube(0).literalCount(), 2u);
}

TEST(SopParser, SemanticsMatchTruthTable) {
  const Cover c = parseSop("x1 !x2 + x2 x3");
  const TruthTable tt = TruthTable::fromCover(c);
  for (std::size_t m = 0; m < 8; ++m) {
    const bool x1 = m & 1, x2 = m & 2, x3 = m & 4;
    EXPECT_EQ(tt.get(0, m), (x1 && !x2) || (x2 && x3)) << "m=" << m;
  }
}

TEST(SopParser, Rejections) {
  EXPECT_THROW(parseSop(""), ParseError);
  EXPECT_THROW(parseSop("x1 +"), ParseError);
  EXPECT_THROW(parseSop("+ x1"), ParseError);
  EXPECT_THROW(parseSop("y1"), ParseError);
  EXPECT_THROW(parseSop("x0"), ParseError);
  EXPECT_THROW(parseSop("x"), ParseError);
  EXPECT_THROW(parseSop("x1 !x1"), ParseError);    // contradictory literal
  EXPECT_THROW(parseSop("x9", 4), InvalidArgument);  // exceeds declared arity
}

}  // namespace
}  // namespace mcx
