// End-to-end pipelines across all subsystems: truth table -> minimized
// cover -> crossbar layout -> defect injection -> mapping -> functional
// simulation, for both the two-level and multi-level designs.
#include <gtest/gtest.h>

#include "benchdata/registry.hpp"
#include "circuit/cache.hpp"
#include "logic/espresso.hpp"
#include "logic/generators.hpp"
#include "logic/isop.hpp"
#include "logic/pla.hpp"
#include "map/exact_mapper.hpp"
#include "map/hybrid_mapper.hpp"
#include "mc/defect_experiment.hpp"
#include "netlist/nand_mapper.hpp"
#include "scenario/defect_model.hpp"
#include "sim/crossbar_sim.hpp"
#include "xbar/layout.hpp"
#include "xbar/multilevel_layout.hpp"

namespace mcx {
namespace {

TEST(Integration, Rd53FullTwoLevelPipeline) {
  // Generate, minimize, lay out, inject defects, map with HBA, simulate.
  const TruthTable tt = weightFunction(5);
  const Cover cover = espressoMinimize(isopCover(tt));
  EXPECT_EQ(TruthTable::fromCover(cover), tt);

  const TwoLevelLayout layout = buildTwoLevelLayout(cover);
  Rng rng(31337);
  std::size_t mapped = 0;
  for (int rep = 0; rep < 30 && mapped < 5; ++rep) {
    Rng sample = rng.split();
    const DefectMap defects =
        IidBernoulli(0.05).sample(layout.fm.rows(), layout.fm.cols(), sample);
    const MappingResult r = HybridMapper().map(layout.fm, crossbarMatrix(defects));
    if (!r.success) continue;
    ++mapped;
    EXPECT_EQ(countTwoLevelMismatches(layout, r.rowAssignment, defects), 0u) << "rep=" << rep;
  }
  EXPECT_GT(mapped, 0u);
}

TEST(Integration, DualImplementationComputesComplement) {
  // When the dual is cheaper the crossbar computes !f; the OL's free
  // inversion recovers f — functionally the pair (f, !f) is available either
  // way. Verify the complement cover really is the complement.
  const TruthTable tt = sqrtFunction(8);
  const Cover on = espressoMinimize(isopCover(tt));
  const Cover dual = espressoMinimize(isopCover(tt.complemented()));
  EXPECT_EQ(TruthTable::fromCover(dual), tt.complemented());
  // The paper's Table I reports the sqrt8 dual as smaller; ours should agree
  // directionally.
  EXPECT_LT(dual.size(), on.size() + 5);
}

TEST(Integration, PlaRoundTripThroughMinimizerAndMapper) {
  const std::string pla =
      ".i 4\n.o 2\n"
      "11-- 10\n"
      "1-1- 10\n"
      "--11 01\n"
      "0--0 01\n"
      "1--- 01\n"
      ".e\n";
  const PlaFile file = parsePlaString(pla);
  const Cover minimized = espressoMinimize(file.on, file.dc);
  EXPECT_EQ(TruthTable::fromCover(minimized), TruthTable::fromCover(file.on));

  const TwoLevelLayout layout = buildTwoLevelLayout(minimized);
  const DefectMap clean(layout.fm.rows(), layout.fm.cols());
  EXPECT_EQ(countTwoLevelMismatches(layout, identityAssignment(layout.fm.rows()), clean), 0u);
}

TEST(Integration, MultiLevelPipelineOnStructuredFunction) {
  const std::shared_ptr<const Circuit> t481 =
      compileCircuit(R"({"circuit":"t481","realize":"multilevel"})");
  ASSERT_TRUE(t481->layout.has_value());
  const MultiLevelLayout& layout = *t481->layout;
  EXPECT_LT(layout.dims().area(), twoLevelDims(t481->cover).area());

  // Clean simulation agrees with the cover on sampled inputs.
  const DefectMap clean(layout.fm.rows(), layout.fm.cols());
  const auto id = identityAssignment(layout.fm.rows());
  Rng rng(5);
  for (int rep = 0; rep < 50; ++rep) {
    DynBits in(16);
    for (std::size_t v = 0; v < 16; ++v) in.set(v, rng.bernoulli(0.5));
    const DynBits expected = t481->cover.evaluate(in);
    const DynBits got = simulateMultiLevel(layout, id, clean, in);
    EXPECT_EQ(got.test(0), expected.test(0)) << "rep=" << rep;
  }
}

TEST(Integration, Table2StyleExperimentOnMisex1StandIn) {
  const std::shared_ptr<const Circuit> misex1 = compileCircuit("misex1");
  const FunctionMatrix& fm = misex1->fm;
  EXPECT_EQ(fm.dims().area(), 570u);

  DefectExperimentConfig cfg;
  cfg.samples = 40;
  cfg.model = std::make_shared<IidBernoulli>(0.10);
  const auto hba = runDefectExperiment(fm, HybridMapper(), cfg);
  const auto ea = runDefectExperiment(fm, ExactMapper(), cfg);
  // The paper reports 100% for misex1 at 10%; allow sampling slack.
  EXPECT_GE(hba.successRate(), 0.85);
  EXPECT_GE(ea.successRate(), hba.successRate());
}

TEST(Integration, WholeRegistryBuildsFunctionMatrices) {
  for (const auto& info : paperBenchmarks()) {
    if (!info.inTable2) continue;
    const std::shared_ptr<const Circuit> c = compileCircuit(info.name);
    const FunctionMatrix& fm = c->fm;
    EXPECT_EQ(fm.rows(), c->cover.size() + c->cover.nout()) << info.name;
    EXPECT_GT(fm.inclusionRatio(), 0.0) << info.name;
    EXPECT_LT(fm.inclusionRatio(), 1.0) << info.name;
  }
}

}  // namespace
}  // namespace mcx
