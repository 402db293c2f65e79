// The library's exact feasibility verdict is Hopcroft-Karp on the candidate
// adjacency; the paper's EA (a zero-cost Munkres assignment on the matching
// matrix) is its independent reference. These sweeps pin the two against
// each other — and against brute force where enumeration is cheap — over
// every small adjacency and every defect map of a 4x4 crossbar.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "assign/munkres.hpp"
#include "logic/sop_parser.hpp"
#include "map/exact_mapper.hpp"
#include "map/matching.hpp"
#include "util/rng.hpp"
#include "xbar/function_matrix.hpp"

namespace mcx {
namespace {

BitMatrix adjacencyFromMask(std::size_t rows, std::size_t cols, std::uint32_t mask) {
  BitMatrix adj(rows, cols, false);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      if ((mask >> (i * cols + j)) & 1) adj.set(i, j);
  return adj;
}

/// Brute force: does an injective row -> column assignment exist along set
/// adjacency bits? (rows <= cols, all rows must be assigned.)
bool bruteForceMatch(const BitMatrix& adj) {
  std::vector<std::size_t> cols(adj.cols());
  std::iota(cols.begin(), cols.end(), 0);
  do {
    bool ok = true;
    for (std::size_t i = 0; i < adj.rows() && ok; ++i) ok = adj.test(i, cols[i]);
    if (ok) return true;
  } while (std::next_permutation(cols.begin(), cols.end()));
  return false;
}

/// Assignment is valid: in-range, on set bits, pairwise distinct.
void expectValidAssignment(const BitMatrix& adj, const std::vector<std::size_t>& assignment) {
  ASSERT_GE(assignment.size(), adj.rows());
  std::vector<std::uint8_t> used(adj.cols(), 0);
  for (std::size_t i = 0; i < adj.rows(); ++i) {
    ASSERT_LT(assignment[i], adj.cols());
    EXPECT_TRUE(adj.test(i, assignment[i])) << "row " << i;
    EXPECT_FALSE(used[assignment[i]]) << "column reused at row " << i;
    used[assignment[i]] = 1;
  }
}

/// The Hopcroft-Karp and Munkres verdicts of one adjacency, checked for
/// agreement and for valid witnesses; returns the shared verdict.
bool agreedVerdict(const BitMatrix& adj) {
  const FeasibleAssignment hk = solveFeasibleAssignment(adj);
  const AssignmentResult munkres = munkresSolve(buildMatchingMatrix(adj));
  EXPECT_EQ(hk.success, munkres.cost == 0);
  if (hk.success) expectValidAssignment(adj, hk.assignment);
  if (munkres.cost == 0) expectValidAssignment(adj, munkres.assignment);
  return hk.success;
}

TEST(ExactVerdictTest, Exhaustive3x3MunkresAndHopcroftKarpAgainstBruteForce) {
  for (std::uint32_t mask = 0; mask < (1u << 9); ++mask) {
    const BitMatrix adj = adjacencyFromMask(3, 3, mask);
    ASSERT_EQ(agreedVerdict(adj), bruteForceMatch(adj)) << "mask " << mask;
  }
}

TEST(ExactVerdictTest, RandomRectangularAdjacenciesAgree) {
  // Random rectangular adjacencies (rows <= cols) across densities: both
  // verdicts must occur often, and the two solvers must agree on each.
  Rng rng(23);
  int feasibleSeen = 0;
  int infeasibleSeen = 0;
  for (int rep = 0; rep < 300; ++rep) {
    const std::size_t rows = 1 + rng.uniformInt(0, 5);
    const std::size_t cols = rows + rng.uniformInt(0, 3);
    const double density = 0.15 + 0.5 * rng.uniform();
    BitMatrix adj(rows, cols, false);
    for (std::size_t i = 0; i < rows; ++i)
      for (std::size_t j = 0; j < cols; ++j)
        if (rng.uniform() < density) adj.set(i, j);
    const bool feasible = agreedVerdict(adj);
    ASSERT_EQ(feasible, bruteForceMatch(adj)) << "rep " << rep;
    (feasible ? feasibleSeen : infeasibleSeen)++;
  }
  EXPECT_GT(feasibleSeen, 20);
  EXPECT_GT(infeasibleSeen, 20);
}

TEST(ExactVerdictExhaustiveTest, EveryDefectMapOn4x4CrossbarMunkresMatchesHopcroftKarp) {
  // Every stuck-open pattern of a 4x4 crossbar (2^16 defect maps) against
  // a fixed 4-term function matrix: the full mapper-facing pipeline of both
  // exact mappers must agree sample by sample, with verified mappings. Kept
  // out of the sanitizer filters by suite name — it is an exhaustive sweep,
  // not a data-race probe.
  const FunctionMatrix fm = buildFunctionMatrix(parseSop("x1 x2 + x1 x3 + x2 x3"));
  ASSERT_EQ(fm.rows(), 4u);
  ExactMapperOptions munkresOpts;
  munkresOpts.useMunkres = true;
  const ExactMapper hk;
  const ExactMapper munkres(munkresOpts);
  MappingContext ctx;
  std::size_t feasibleSeen = 0;
  for (std::uint32_t mask = 0; mask < (1u << 16); ++mask) {
    BitMatrix cm(4, fm.cols(), true);
    for (std::size_t i = 0; i < 4; ++i)
      for (std::size_t j = 0; j < 4 && j < fm.cols(); ++j)
        if ((mask >> (i * 4 + j)) & 1) cm.reset(i, j);
    const MappingResult fast = hk.map(fm, cm, ctx);
    const MappingResult reference = munkres.map(fm, cm);
    ASSERT_EQ(fast.success, reference.success) << "mask " << mask;
    if (fast.success) {
      ++feasibleSeen;
      ASSERT_TRUE(verifyMapping(fm, cm, fast)) << "mask " << mask;
      ASSERT_TRUE(verifyMapping(fm, cm, reference)) << "mask " << mask;
    }
  }
  EXPECT_GT(feasibleSeen, 0u);
  EXPECT_LT(feasibleSeen, std::size_t{1} << 16);
}

}  // namespace
}  // namespace mcx
