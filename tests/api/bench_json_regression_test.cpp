// Bit-identity regression against the committed BENCH_defect_mc.json: the
// legacy i.i.d. rate-pair path, declared as a CircuitSpec and invoked
// through the ExperimentBuilder facade, must reproduce the committed
// success counts exactly. This pins the whole chain — circuit registry ->
// synthesis pipeline -> memo cache -> builder -> config -> engine ->
// pre-split RNG streams -> mapper — to the numbers every prior PR has
// preserved. The committed BENCH_table2_defect_mc.json pins the registry
// covers with espresso on the generated rows the same way.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "api/experiment.hpp"
#include "benchdata/registry.hpp"
#include "circuit/cache.hpp"
#include "circuit/registry.hpp"
#include "map/exact_mapper.hpp"
#include "map/hybrid_mapper.hpp"
#include "scenario/spec.hpp"

#ifndef MCX_REPO_ROOT
#error "MCX_REPO_ROOT must point at the repository root (set by CMake)"
#endif

namespace mcx {
namespace {

SpecValue readCommittedJson(const std::string& file) {
  std::ifstream in(std::string(MCX_REPO_ROOT) + "/" + file);
  EXPECT_TRUE(in.good()) << "committed " << file << " not found";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parseSpec(buffer.str());
}

/// The committed workloads as circuit-pipeline declarations (what the
/// multilevel suite runs): espresso-polished generated circuits, fast
/// registry stand-ins.
std::string workloadSpec(const std::string& name) {
  if (name == "rd53") return "rd53-min";
  if (name == "sqrt8") return "sqrt8-min";
  if (name == "t481 stand-in") return "t481";
  if (name == "bw") return "bw";
  ADD_FAILURE() << "unknown committed workload " << name;
  return "rd53";
}

TEST(BenchJsonRegression, BuilderReproducesCommittedLegacySuccessCounts) {
  const SpecValue doc = readCommittedJson("BENCH_defect_mc.json");
  ASSERT_TRUE(doc.isObject());

  const auto samples = static_cast<std::size_t>(doc.numberOr("samples", 0));
  const double rate = doc.numberOr("stuck_open_rate", 0.0);
  ASSERT_GT(samples, 0u);
  ASSERT_GT(rate, 0.0);

  const SpecValue* circuits = doc.find("circuits");
  ASSERT_NE(circuits, nullptr);
  ASSERT_TRUE(circuits->isArray());

  std::size_t checked = 0;
  for (const SpecValue& circuit : circuits->array) {
    const std::string name = circuit.stringOr("name", "");
    const std::string spec = workloadSpec(name);

    const SpecValue* mappers = circuit.find("mappers");
    ASSERT_NE(mappers, nullptr) << name;
    for (const SpecValue& entry : mappers->array) {
      // Only the legacy rate-pair rows are the bit-identity surface; the
      // sparse-sampler rows use a different (statistically equivalent)
      // stream and are covered by their own statistical tests.
      if (entry.stringOr("scenario", "") != "iid (legacy rates)") continue;
      const std::string mapperName = entry.stringOr("mapper", "");
      const std::string preset = mapperName == "HBA"   ? "hba"
                                 : mapperName == "EA"  ? "ea"
                                                       : "";
      ASSERT_FALSE(preset.empty()) << "unexpected committed mapper " << mapperName;

      const SpecValue* runs = entry.find("runs");
      ASSERT_NE(runs, nullptr);
      ASSERT_FALSE(runs->array.empty());
      const auto committed =
          static_cast<std::size_t>(runs->array.front().numberOr("successes", -1));

      const ExperimentResult result = ExperimentBuilder()
                                          .circuit(spec)
                                          .multiLevel()
                                          .mapper(preset)
                                          .legacyRates(rate)
                                          .samples(samples)
                                          .seed(0x51a)
                                          .threads(1)
                                          .run();
      EXPECT_EQ(result.outcome.successes, committed)
          << name << " / " << mapperName
          << ": facade no longer reproduces the committed success count";
      ++checked;
    }
  }
  // 4 circuits x {HBA, EA} legacy rows — fail loudly if the committed file
  // ever loses its regression surface.
  EXPECT_EQ(checked, 8u);
}

TEST(BenchJsonRegression, Table2ReproducesCommittedCounts) {
  // The table2 suite's declarations: every Table II registry circuit,
  // espresso on generated rows only (stand-ins are built at the paper's
  // post-minimization P), HBA and EA at 10% i.i.d. stuck-open defects.
  const SpecValue doc = readCommittedJson("BENCH_table2_defect_mc.json");
  ASSERT_TRUE(doc.isObject());
  const auto samples = static_cast<std::size_t>(doc.numberOr("samples", 0));
  ASSERT_EQ(samples, 200u);
  ASSERT_EQ(doc.numberOr("stuck_open_rate", 0.0), 0.10);
  const SpecValue* circuits = doc.find("circuits");
  ASSERT_NE(circuits, nullptr);

  DefectExperimentConfig cfg;
  cfg.samples = samples;
  cfg.model = std::make_shared<IidBernoulli>(0.10);
  cfg.seed = 0x7ab1e2;
  cfg.threads = 1;
  const HybridMapper hba;
  const ExactMapper ea;

  std::size_t checked = 0;
  for (const SpecValue& circuit : circuits->array) {
    const std::string name = circuit.stringOr("name", "");
    CircuitSpec spec = makeCircuitSpec(name);
    if (findBenchmark(name).source == BenchmarkSource::Generated)
      spec.synth = CircuitSpec::Synth::Espresso;
    const std::shared_ptr<const Circuit> compiled = compileCircuit(spec);
    EXPECT_EQ(compiled->fm.dims().area(),
              static_cast<std::size_t>(circuit.numberOr("area", 0)))
        << name;

    const SpecValue* mappers = circuit.find("mappers");
    ASSERT_NE(mappers, nullptr) << name;
    for (const SpecValue& entry : mappers->array) {
      const std::string mapperName = entry.stringOr("mapper", "");
      const IMapper* mapper = mapperName == "HBA"  ? static_cast<const IMapper*>(&hba)
                              : mapperName == "EA" ? static_cast<const IMapper*>(&ea)
                                                   : nullptr;
      ASSERT_NE(mapper, nullptr) << "unexpected committed mapper " << mapperName;
      const SpecValue* runs = entry.find("runs");
      ASSERT_NE(runs, nullptr);
      ASSERT_FALSE(runs->array.empty());
      const auto committed =
          static_cast<std::size_t>(runs->array.front().numberOr("successes", -1));
      EXPECT_EQ(runDefectExperiment(compiled->fm, *mapper, cfg).successes, committed)
          << name << " / " << mapperName;
      ++checked;
    }
  }
  // 16 Table II circuits x {HBA, EA}.
  EXPECT_EQ(checked, 32u);
}

}  // namespace
}  // namespace mcx
