// ApproxMapper behaviour: pass-through on inner success, graded partial
// rescues with exact realized error, epsilon gating, weight-ordered cube
// sacrifice, the approx.evaluate fault site — and the independent
// cross-checks the subsystem's honesty rests on: every reported per-sample
// error is re-derived from scratch (Cover -> truth tables through a
// different code path), and on real defect samples every retained row set
// is confirmed matchable, and every full row set unmatchable, by the
// paper's zero-cost Munkres assignment.
#include "approx/approx_mapper.hpp"

#include <gtest/gtest.h>

#include "api/experiment.hpp"
#include "approx/error.hpp"
#include "circuit/cache.hpp"
#include "logic/truth_table.hpp"
#include "map/registry.hpp"
#include "mc/executor.hpp"
#include "scenario/defect_model.hpp"
#include "util/faultinject.hpp"

namespace mcx {
namespace {

/// f = x1 + x2 over 2 inputs, 1 output: two product rows, one output row.
Cover twoCubeCover() {
  Cover cover(2, 1);
  cover.add(makeCube("1-", "1"));
  cover.add(makeCube("-1", "1"));
  return cover;
}

BitMatrix cleanCrossbar(const FunctionMatrix& fm) {
  return BitMatrix(fm.rows(), fm.cols(), true);
}

class ApproxTestMapper : public ::testing::Test {
protected:
  void TearDown() override { faultinject::reset(); }
};

TEST_F(ApproxTestMapper, CleanCrossbarPassesInnerSuccessThrough) {
  const FunctionMatrix fm = buildFunctionMatrix(twoCubeCover());
  const ApproxMapper mapper;
  const MappingResult result = mapper.map(fm, cleanCrossbar(fm));
  EXPECT_TRUE(result.success);
  EXPECT_TRUE(result.droppedRows.empty());
  EXPECT_DOUBLE_EQ(result.realizedErrorOrBinary(), 0.0);
  EXPECT_TRUE(verifyMapping(fm, cleanCrossbar(fm), result));
}

TEST_F(ApproxTestMapper, RescuesByDroppingTheUnrealizableCubeWithExactError) {
  const FunctionMatrix fm = buildFunctionMatrix(twoCubeCover());
  // Product row 0 requires colOfPosLiteral(0); kill that column everywhere
  // so no exact mapping exists but everything else still fits.
  BitMatrix cm = cleanCrossbar(fm);
  cm.setCol(fm.colOfPosLiteral(0), false);

  const ApproxMapper mapper;  // sacrifice budget 1.0
  const MappingResult result = mapper.map(fm, cm);
  EXPECT_FALSE(result.success);
  ASSERT_EQ(result.droppedRows.size(), 1u);
  EXPECT_EQ(result.droppedRows[0], 0u);
  EXPECT_EQ(result.rowAssignment[0], MappingResult::kUnassigned);
  // Dropping "x1" loses exactly one of the four (minterm, output) pairs
  // (the minterm covered only by it).
  EXPECT_DOUBLE_EQ(result.realizedError, 0.25);
  EXPECT_TRUE(verifyPartialMapping(fm, cm, result));
}

TEST_F(ApproxTestMapper, EpsilonBudgetTurnsOverCostRescuesIntoPlainFailures) {
  const FunctionMatrix fm = buildFunctionMatrix(twoCubeCover());
  BitMatrix cm = cleanCrossbar(fm);
  cm.setCol(fm.colOfPosLiteral(0), false);

  const ApproxMapper mapper(ApproxMapperOptions{0.1});  // rescue would cost 0.25
  const MappingResult result = mapper.map(fm, cm);
  EXPECT_FALSE(result.success);
  EXPECT_TRUE(result.droppedRows.empty());
  EXPECT_DOUBLE_EQ(result.realizedErrorOrBinary(), 1.0);
}

TEST_F(ApproxTestMapper, DeadOutputRowIsATotalFailure) {
  const FunctionMatrix fm = buildFunctionMatrix(twoCubeCover());
  BitMatrix cm = cleanCrossbar(fm);
  cm.setCol(fm.colOfOutputBar(0), false);  // no row can host the output latch

  const ApproxMapper mapper;
  const MappingResult result = mapper.map(fm, cm);
  EXPECT_FALSE(result.success);
  EXPECT_TRUE(result.droppedRows.empty());
  EXPECT_DOUBLE_EQ(result.realizedErrorOrBinary(), 1.0);
}

TEST_F(ApproxTestMapper, SacrificesTheLowestWeightCubeWhenRowsCompete) {
  // A = x1 (covers m1, m3), B = x1 x2 (covers m3 only): B's coverage is a
  // subset of A's, so B's unique weight is 0 and A's is 1. Leave exactly
  // one CM row able to host a colOfPosLiteral(0) requirement: A and B
  // compete for it and the greedy must keep A — dropping B costs nothing.
  Cover cover(2, 1);
  cover.add(makeCube("1-", "1"));
  cover.add(makeCube("11", "1"));
  const FunctionMatrix fm = buildFunctionMatrix(cover);
  BitMatrix cm = cleanCrossbar(fm);
  cm.setCol(fm.colOfPosLiteral(0), false);
  cm.set(0, fm.colOfPosLiteral(0));

  const ApproxMapper mapper;
  const MappingResult result = mapper.map(fm, cm);
  EXPECT_FALSE(result.success);
  ASSERT_EQ(result.droppedRows.size(), 1u);
  EXPECT_EQ(result.droppedRows[0], 1u) << "the zero-weight cube must be the sacrifice";
  EXPECT_DOUBLE_EQ(result.realizedError, 0.0) << "B adds no coverage beyond A";
  EXPECT_TRUE(verifyPartialMapping(fm, cm, result));
}

TEST_F(ApproxTestMapper, SameShapeFunctionsGetTheirOwnAnalyses) {
  // Two FMs of identical shape whose cube weights and rescue orders are
  // mirrored: in A the heavy cube x1 is row 0, in B it is row 1. One
  // mapper instance serves both, alternately, so its per-FM analysis cache
  // must key on the content: B rescued with A's order would keep x1 x2,
  // drop x1 and report 0.25.
  Cover a(2, 1), b(2, 1);
  a.add(makeCube("1-", "1"));
  a.add(makeCube("11", "1"));
  b.add(makeCube("11", "1"));
  b.add(makeCube("1-", "1"));
  const FunctionMatrix fmA = buildFunctionMatrix(a);
  const FunctionMatrix fmB = buildFunctionMatrix(b);
  ASSERT_EQ(fmA.rows(), fmB.rows());
  ASSERT_EQ(fmA.cols(), fmB.cols());
  ASSERT_NE(fmA.bits(), fmB.bits());
  BitMatrix cm = cleanCrossbar(fmA);
  cm.setCol(fmA.colOfPosLiteral(0), false);
  cm.set(0, fmA.colOfPosLiteral(0));

  const ApproxMapper mapper;
  for (int round = 0; round < 2; ++round) {
    const MappingResult ra = mapper.map(fmA, cm);
    EXPECT_EQ(ra.droppedRows, std::vector<std::size_t>{1});
    EXPECT_EQ(ra.realizedError, 0.0);
    const MappingResult rb = mapper.map(fmB, cm);
    EXPECT_EQ(rb.droppedRows, std::vector<std::size_t>{0});
    EXPECT_EQ(rb.realizedError, 0.0);
    EXPECT_TRUE(verifyPartialMapping(fmB, cm, rb));
  }
}

TEST_F(ApproxTestMapper, FaultSiteFiresOnTheRescuePath) {
  faultinject::arm("approx.evaluate", {faultinject::Kind::Throw});
  const FunctionMatrix fm = buildFunctionMatrix(twoCubeCover());
  BitMatrix cm = cleanCrossbar(fm);
  cm.setCol(fm.colOfPosLiteral(0), false);

  const ApproxMapper mapper;
  EXPECT_THROW(mapper.map(fm, cm), FaultInjected);
  EXPECT_GE(faultinject::hits("approx.evaluate"), 1u);
  // The exact path never reaches the site.
  faultinject::reset();
  faultinject::arm("approx.evaluate", {faultinject::Kind::Throw});
  EXPECT_TRUE(mapper.map(fm, cleanCrossbar(fm)).success);
  EXPECT_EQ(faultinject::hits("approx.evaluate"), 0u);
}

TEST_F(ApproxTestMapper, RegistrySpecParsesInnerAndEpsilon) {
  const auto mapper = makeMapper(R"({"mapper": "approx", "inner": "hba", "epsilon": 0.5})");
  EXPECT_EQ(mapper->name().rfind("approx(", 0), 0u) << mapper->name();
  EXPECT_NE(mapper->name().find("0.5"), std::string::npos) << mapper->name();

  EXPECT_THROW(makeMapper(R"({"mapper": "approx", "epsilon": 1.5})"), ParseError);
  EXPECT_THROW(makeMapper(R"({"mapper": "approx", "epsilon": -0.1})"), ParseError);
  EXPECT_THROW(makeMapper(R"({"mapper": "approx", "bogus": 1})"), ParseError);
  EXPECT_NO_THROW(makeMapper("approx"));  // the preset: fast-ea inner, eps 1.0
}

TEST_F(ApproxTestMapper, ReportedErrorsMatchExhaustiveAndMunkresGroundTruth) {
  // Real defect samples on a committed circuit: every graded verdict is
  // cross-checked against (a) an exhaustive truth-table re-derivation of
  // the realized error through Cover/TruthTable (not the mapper's cached
  // path) and (b) a zero-cost Munkres assignment on the paper's matching
  // matrix — independent of the inner Hopcroft-Karp mapper: the retained
  // rows must be matchable and the full row set must not be.
  const std::shared_ptr<const Circuit> circuit = compileCircuit("rd53-min");
  const FunctionMatrix& fm = circuit->fm;
  const Cover& cover = circuit->cover;
  ASSERT_EQ(cover.size(), fm.numProductRows());

  const ApproxMapper mapper;
  const IidBernoulli defects(0.25);

  std::vector<std::size_t> outputRows;
  for (std::size_t o = 0; o < fm.numOutputRows(); ++o)
    outputRows.push_back(fm.rowOfOutput(o));
  std::vector<std::size_t> allFmRows(fm.rows());
  for (std::size_t r = 0; r < fm.rows(); ++r) allFmRows[r] = r;
  std::vector<std::size_t> allCmRows;
  std::size_t partials = 0;

  for (Rng rng : splitSampleStreams(0xf00d, 40)) {
    const BitMatrix cm = crossbarMatrix(defects.sample(fm.rows(), fm.cols(), rng));
    const MappingResult result = mapper.map(fm, cm);
    if (result.success) {
      EXPECT_TRUE(verifyMapping(fm, cm, result));
      continue;
    }
    if (result.droppedRows.empty()) continue;  // total failure (binary)
    ++partials;
    EXPECT_TRUE(verifyPartialMapping(fm, cm, result));
    EXPECT_LE(result.realizedError, mapper.options().epsilon);

    // (a) Exhaustive re-derivation: realized = the retained cubes as a
    // fresh Cover, compared minterm by minterm against the full cover.
    Cover retained(cover.nin(), cover.nout());
    std::vector<std::size_t> retainedRows;
    std::size_t nextDrop = 0;
    for (std::size_t i = 0; i < cover.size(); ++i) {
      if (nextDrop < result.droppedRows.size() && result.droppedRows[nextDrop] == i) {
        ++nextDrop;
        continue;
      }
      retained.add(cover.cube(i));
      retainedRows.push_back(i);
    }
    const TruthTable specTt = TruthTable::fromCover(cover);
    const TruthTable gotTt = TruthTable::fromCover(retained);
    std::size_t wrong = 0;
    for (std::size_t o = 0; o < specTt.nout(); ++o)
      for (std::size_t m = 0; m < specTt.numMinterms(); ++m)
        if (specTt.get(o, m) != gotTt.get(o, m)) ++wrong;
    const double exhaustive = static_cast<double>(wrong) /
                              static_cast<double>(specTt.nout() * specTt.numMinterms());
    EXPECT_DOUBLE_EQ(result.realizedError, exhaustive);

    // (b) Munkres cross-check. Retained product rows + output rows must
    // have a zero-cost assignment...
    if (allCmRows.size() != cm.rows()) {
      allCmRows.resize(cm.rows());
      for (std::size_t r = 0; r < cm.rows(); ++r) allCmRows[r] = r;
    }
    std::vector<std::size_t> fmRows = retainedRows;
    fmRows.insert(fmRows.end(), outputRows.begin(), outputRows.end());
    EXPECT_EQ(munkresSolve(buildMatchingMatrix(fm.bits(), fmRows, cm, allCmRows)).cost, 0)
        << "retained rows must be matchable";
    // ...and the full row set must not.
    EXPECT_GT(munkresSolve(buildMatchingMatrix(fm.bits(), allFmRows, cm, allCmRows)).cost, 0)
        << "a rescue happened on a sample the exact mapper could have mapped";
  }
  EXPECT_GT(partials, 0u) << "the rate/seed must actually exercise the rescue path";
}

TEST_F(ApproxTestMapper, EngineCountsGradedAcceptanceAndRescues) {
  const auto run = [](double epsilon) {
    return ExperimentBuilder()
        .circuit("rd53-min")
        .mapper(R"({"mapper": "approx", "inner": "fast-ea", "epsilon": 1.0})")
        .legacyRates(0.25)
        .samples(40)
        .seed(0xf00d)
        .errorBudget(epsilon)
        .run();
  };
  // eps = 0: the graded path must collapse to the classical verdict.
  const ExperimentResult exact = run(0.0);
  EXPECT_EQ(exact.outcome.epsilonAccepted, exact.outcome.successes);
  EXPECT_EQ(exact.outcome.rescued, 0u);
  EXPECT_TRUE(exact.graded);

  // eps = 0.05: rescued samples join the accepted count.
  const ExperimentResult graded = run(0.05);
  EXPECT_EQ(graded.outcome.successes, exact.outcome.successes)
      << "the exact success count must not depend on the budget";
  EXPECT_GE(graded.outcome.epsilonAccepted, graded.outcome.successes);
  EXPECT_EQ(graded.outcome.rescued,
            graded.outcome.epsilonAccepted - graded.outcome.successes);
  EXPECT_GT(graded.outcome.rescued, 0u) << "0.25 stuck-open must produce rescues";
  EXPECT_GE(graded.functionalYield(), graded.successRate());
  EXPECT_GT(graded.meanRealizedError(), 0.0);
}

}  // namespace
}  // namespace mcx
