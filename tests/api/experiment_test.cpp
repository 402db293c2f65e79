#include "api/experiment.hpp"

#include <gtest/gtest.h>

#include "circuit/cache.hpp"
#include "logic/sop_parser.hpp"
#include "map/hybrid_mapper.hpp"
#include "scenario/registry.hpp"
#include "scenario/spec.hpp"
#include "util/error.hpp"

namespace mcx {
namespace {

Cover testCover() { return parseSop("x1 x2 + !x2 x3 + x1 !x3 + x2 x3"); }

TEST(ExperimentBuilder, RequiresCircuitAndMapper) {
  EXPECT_THROW(ExperimentBuilder().run(), InvalidArgument);
  EXPECT_THROW(ExperimentBuilder().circuit("f", testCover()).run(), InvalidArgument);
  EXPECT_THROW(ExperimentBuilder().mapper("hba").run(), InvalidArgument);
  EXPECT_THROW(ExperimentBuilder().mapper(std::shared_ptr<const IMapper>()), InvalidArgument);
  EXPECT_THROW(ExperimentBuilder().scenario(std::shared_ptr<const DefectModel>()),
               InvalidArgument);
}

TEST(ExperimentBuilder, UnknownNamesThrowEagerly) {
  EXPECT_THROW(ExperimentBuilder().mapper("bogus"), ParseError);
  EXPECT_THROW(ExperimentBuilder().scenario("bogus"), ParseError);
  // Circuits resolve through the circuit registry now: unknown names and
  // unreadable files fail at declaration time, like mappers and scenarios.
  EXPECT_THROW(ExperimentBuilder().circuit("no-such-circuit"), ParseError);
  EXPECT_THROW(ExperimentBuilder().circuit("file:/nonexistent.pla"), ParseError);
}

TEST(ExperimentBuilder, LegacyPathBitIdenticalToHandBuiltConfig) {
  // The builder is a declaration layer over runDefectExperiment: the
  // legacyRates declaration must reproduce a hand-built IidBernoulli config
  // draw for draw.
  const FunctionMatrix fm = buildFunctionMatrix(testCover());
  DefectExperimentConfig cfg;
  cfg.samples = 60;
  cfg.model = std::make_shared<IidBernoulli>(0.12, 0.01);
  cfg.seed = 0x7ab1e2;
  cfg.keepMappings = true;
  const DefectExperimentResult direct = runDefectExperiment(fm, HybridMapper(), cfg);

  const ExperimentResult viaBuilder = ExperimentBuilder()
                                          .circuit("test", testCover())
                                          .mapper("hba")
                                          .legacyRates(0.12, 0.01)
                                          .samples(60)
                                          .seed(0x7ab1e2)
                                          .keepMappings(true)
                                          .run();
  EXPECT_EQ(viaBuilder.scenario, "iid (legacy rates)");
  EXPECT_EQ(viaBuilder.outcome.successes, direct.successes);
  EXPECT_EQ(viaBuilder.outcome.totalBacktracks, direct.totalBacktracks);
  ASSERT_EQ(viaBuilder.outcome.mappings.size(), direct.mappings.size());
  for (std::size_t s = 0; s < direct.mappings.size(); ++s)
    EXPECT_EQ(viaBuilder.outcome.mappings[s].rowAssignment, direct.mappings[s].rowAssignment)
        << "sample=" << s;
}

TEST(ExperimentBuilder, LegacyRatesAreValidatedAtDeclaration) {
  EXPECT_THROW(ExperimentBuilder().legacyRates(0.7, 0.5), InvalidArgument);
  EXPECT_THROW(ExperimentBuilder().legacyRates(-0.1), InvalidArgument);
}

TEST(ExperimentBuilder, UndeclaredScenarioIsLegacyRatesAtTenPercent) {
  ExperimentBuilder base;
  base.circuit("test", testCover()).mapper("hba").samples(40).seed(21).keepMappings(true);
  const ExperimentResult implicit = ExperimentBuilder(base).run();
  const ExperimentResult declared = ExperimentBuilder(base).legacyRates(0.10).run();
  EXPECT_EQ(implicit.scenario, "iid (legacy rates)");
  EXPECT_EQ(declared.scenario, "iid (legacy rates)");
  EXPECT_EQ(parseSpec(implicit.toJson()).stringOr("scenario", ""), "iid (legacy rates)");
  EXPECT_EQ(implicit.outcome.successes, declared.outcome.successes);
  EXPECT_EQ(implicit.outcome.totalBacktracks, declared.outcome.totalBacktracks);
  ASSERT_EQ(implicit.outcome.mappings.size(), declared.outcome.mappings.size());
  for (std::size_t s = 0; s < declared.outcome.mappings.size(); ++s)
    EXPECT_EQ(implicit.outcome.mappings[s].rowAssignment,
              declared.outcome.mappings[s].rowAssignment)
        << "sample=" << s;
}

TEST(ExperimentBuilder, ScenarioAndRegistryCircuit) {
  const ExperimentResult r = ExperimentBuilder()
                                 .circuit("rd53")
                                 .mapper("hba")
                                 .scenario("clustered", 0.05)
                                 .samples(20)
                                 .seed(9)
                                 .run();
  EXPECT_EQ(r.circuit, "rd53");
  EXPECT_EQ(r.mapper, "HBA");
  EXPECT_NE(r.scenario.find("clustered"), std::string::npos);
  EXPECT_EQ(r.outcome.samples, 20u);
  EXPECT_GT(r.area(), 0u);
  // Same declaration, same outcome: the engine's determinism carries
  // through the facade.
  const ExperimentResult again = ExperimentBuilder()
                                     .circuit("rd53")
                                     .mapper("hba")
                                     .scenario("clustered", 0.05)
                                     .samples(20)
                                     .seed(9)
                                     .run();
  EXPECT_EQ(r.outcome.successes, again.outcome.successes);
}

TEST(ExperimentBuilder, BuilderCopiesAreIndependent) {
  ExperimentBuilder base;
  base.circuit("test", testCover()).samples(30).seed(5);
  const ExperimentResult hba =
      ExperimentBuilder(base).mapper("hba").legacyRates(0.10).run();
  const ExperimentResult ea = ExperimentBuilder(base).mapper("ea").legacyRates(0.10).run();
  EXPECT_EQ(hba.mapper, "HBA");
  EXPECT_EQ(ea.mapper, "EA");
  // EA is exact: it succeeds at least wherever HBA does.
  EXPECT_GE(ea.outcome.successes, hba.outcome.successes);
}

TEST(ExperimentBuilder, MultiLevelLayout) {
  const ExperimentResult two = ExperimentBuilder()
                                   .circuit("test", testCover())
                                   .mapper("hba")
                                   .samples(5)
                                   .run();
  const ExperimentResult multi = ExperimentBuilder()
                                     .circuit("test", testCover())
                                     .multiLevel()
                                     .mapper("hba")
                                     .samples(5)
                                     .run();
  EXPECT_NE(two.rows * 1000 + two.cols, multi.rows * 1000 + multi.cols)
      << "multi-level layout must differ from the two-level one";
}

TEST(ExperimentBuilder, PlaFileRoundTripsEndToEnd) {
  // A committed .pla fixture through the whole chain: file -> pipeline ->
  // cache -> engine. The second run must hit the memo cache (no
  // re-synthesis) and reproduce the first run exactly.
  const std::string source =
      std::string("file:") + MCX_REPO_ROOT + "/examples/data/adder.pla";
  ExperimentBuilder declared;
  declared.circuit(source).mapper("hba").legacyRates(0.10).samples(40).seed(11);

  const CircuitCache::Stats before = CircuitCache::global().stats();
  const ExperimentResult first = ExperimentBuilder(declared).run();
  const ExperimentResult second = ExperimentBuilder(declared).run();
  const CircuitCache::Stats after = CircuitCache::global().stats();

  EXPECT_EQ(first.circuit, "adder.pla");
  EXPECT_NE(first.circuitSpec.find("file:"), std::string::npos);
  EXPECT_EQ(first.outcome.samples, 40u);
  EXPECT_GT(first.rows, 0u);
  EXPECT_EQ(first.outcome.successes, second.outcome.successes);
  EXPECT_GE(after.hits, before.hits + 1)
      << "the repeated declaration must be served from the circuit cache";

  // The builder's multiLevel() knob overrides the spec's realization.
  const ExperimentResult multi = ExperimentBuilder(declared).multiLevel().run();
  EXPECT_GT(multi.rows, first.rows);

  // cache(false) bypasses memoization but must stay bit-identical.
  const ExperimentResult bypassed = ExperimentBuilder(declared).cache(false).run();
  EXPECT_EQ(bypassed.outcome.successes, first.outcome.successes);
}

TEST(ExperimentBuilder, CircuitSpecJsonDeclaration) {
  const ExperimentResult r =
      ExperimentBuilder()
          .circuit(R"({"circuit":"gen:weight5","synth":"espresso","realize":"multilevel"})")
          .mapper("hba")
          .legacyRates(0.10)
          .samples(10)
          .seed(3)
          .run();
  EXPECT_EQ(r.circuit, "weight5");
  EXPECT_NE(r.circuitSpec.find("synth=espresso"), std::string::npos);
  EXPECT_NE(r.circuitSpec.find("realize=multilevel"), std::string::npos);
}

TEST(ExperimentResult, UniformJsonRoundTrips) {
  const ExperimentResult r = ExperimentBuilder()
                                 .circuit("test", testCover())
                                 .mapper("fast-ea")
                                 .scenario("paper-iid", 0.10)
                                 .samples(10)
                                 .seed(3)
                                 .timePerSample(true)
                                 .run();
  const SpecValue parsed = parseSpec(r.toJson());
  ASSERT_TRUE(parsed.isObject());
  EXPECT_EQ(parsed.stringOr("circuit", ""), "test");
  EXPECT_EQ(parsed.stringOr("mapper", ""), "EA-fast");
  EXPECT_DOUBLE_EQ(parsed.numberOr("samples", -1), 10.0);
  EXPECT_DOUBLE_EQ(parsed.numberOr("successes", -1),
                   static_cast<double>(r.outcome.successes));
  EXPECT_DOUBLE_EQ(parsed.numberOr("seed", -1), 3.0);
  EXPECT_NE(parsed.find("success_rate"), nullptr);
  EXPECT_NE(parsed.find("mean_seconds"), nullptr);
  EXPECT_NE(parsed.find("mean_map_millis"), nullptr)
      << "timed runs must carry the per-sample timing field";
}

}  // namespace
}  // namespace mcx
