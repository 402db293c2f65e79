// Unit tests of the functional error oracle (tests/oracles/functional_error.hpp):
// exact minterm-diff counting, don't-care exclusion, and the retained-subset
// error of a cover (the quantity the approx mapper reports per sample).
#include "oracles/functional_error.hpp"

#include <gtest/gtest.h>

#include "logic/cover.hpp"
#include "logic/truth_table.hpp"
#include "util/error.hpp"

namespace mcx {
namespace {

using approx::compareTruthTables;
using approx::coverSubsetError;
using approx::ErrorReport;

TEST(ApproxTestError, IdenticalTablesAreExact) {
  const TruthTable tt = TruthTable::fromFunction(
      3, 2, [](std::size_t m, std::size_t o) { return ((m >> o) & 1u) != 0; });
  const ErrorReport report = compareTruthTables(tt, tt);
  EXPECT_EQ(report.carePairs, 2u * 8u);
  EXPECT_EQ(report.wrongPairs, 0u);
  EXPECT_EQ(report.fraction(), 0.0);
}

TEST(ApproxTestError, CountsDiffsPerOutput) {
  TruthTable spec(2, 2);
  spec.set(0, 1);
  spec.set(0, 3);
  spec.set(1, 0);
  TruthTable realized = spec;
  realized.set(0, 1, false);  // one wrong pair on output 0
  realized.set(1, 2, true);   // one wrong pair on output 1
  const ErrorReport report = compareTruthTables(spec, realized);
  EXPECT_EQ(report.carePairs, 8u);
  EXPECT_EQ(report.wrongPairs, 2u);
  ASSERT_EQ(report.wrongPerOutput.size(), 2u);
  EXPECT_EQ(report.wrongPerOutput[0], 1u);
  EXPECT_EQ(report.wrongPerOutput[1], 1u);
  EXPECT_DOUBLE_EQ(report.fraction(), 0.25);
  EXPECT_DOUBLE_EQ(report.fractionForOutput(0), 0.25);
}

TEST(ApproxTestError, DontCarePairsAreExcludedFromBothCounts) {
  TruthTable spec(2, 1);
  spec.set(0, 1);
  TruthTable realized(2, 1);  // all-zero: minterm 1 is wrong
  TruthTable dc(2, 1);
  dc.set(0, 1);  // ...but the spec does not care about it
  const ErrorReport report = compareTruthTables(spec, realized, dc);
  EXPECT_EQ(report.carePairs, 3u);
  EXPECT_EQ(report.wrongPairs, 0u);
  EXPECT_EQ(report.fraction(), 0.0);
}

TEST(ApproxTestError, EmptyCareSetCountsAsExact) {
  ErrorReport report;
  EXPECT_EQ(report.fraction(), 0.0);
}

TEST(ApproxTestError, FullRetentionOfACoverIsExact) {
  Cover cover(2, 1);
  cover.add(makeCube("1-", "1"));
  cover.add(makeCube("-1", "1"));
  const ErrorReport report = coverSubsetError(cover, {0, 1});
  EXPECT_EQ(report.wrongPairs, 0u);
  EXPECT_EQ(report.carePairs, 4u);
}

TEST(ApproxTestError, DroppedCubeCostsExactlyItsUniqueCoverage) {
  // ON set = {m1, m3} from "1-" union {m2, m3} from "-1". Dropping the
  // second cube loses only m2 (m3 stays covered by the first).
  Cover cover(2, 1);
  cover.add(makeCube("1-", "1"));
  cover.add(makeCube("-1", "1"));
  const ErrorReport report = coverSubsetError(cover, {0});
  EXPECT_EQ(report.carePairs, 4u);
  EXPECT_EQ(report.wrongPairs, 1u);
  EXPECT_DOUBLE_EQ(report.fraction(), 0.25);
}

TEST(ApproxTestError, SubsetErrorHonorsDontCares) {
  Cover cover(2, 1);
  cover.add(makeCube("1-", "1"));
  cover.add(makeCube("-1", "1"));
  Cover dc(2, 1);
  dc.add(makeCube("01", "1"));  // m2 — exactly the pair dropping cube 1 loses
  const ErrorReport report = coverSubsetError(cover, dc, {0});
  EXPECT_EQ(report.carePairs, 3u);
  EXPECT_EQ(report.wrongPairs, 0u);
}

TEST(ApproxTestError, RetainedIndexOutOfRangeThrows) {
  Cover cover(2, 1);
  cover.add(makeCube("1-", "1"));
  EXPECT_THROW(coverSubsetError(cover, {1}), Error);
}

}  // namespace
}  // namespace mcx
