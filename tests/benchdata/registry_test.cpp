#include "benchdata/registry.hpp"

#include <gtest/gtest.h>

#include "circuit/cache.hpp"
#include "logic/generators.hpp"
#include "logic/truth_table.hpp"
#include "util/error.hpp"
#include "xbar/area_model.hpp"

namespace mcx {
namespace {

std::shared_ptr<const Circuit> espressoCircuit(const std::string& name) {
  return compileCircuit(R"({"circuit":")" + name + R"(","synth":"espresso"})");
}

TEST(Registry, ListsAllPaperCircuits) {
  const auto& infos = paperBenchmarks();
  EXPECT_EQ(infos.size(), 20u);
  std::size_t table2 = 0;
  for (const auto& info : infos) table2 += info.inTable2 ? 1 : 0;
  EXPECT_EQ(table2, 16u);  // the 16 rows of Table II
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW(findBenchmark("nonexistent"), InvalidArgument);
  EXPECT_THROW(standInCover("nonexistent"), InvalidArgument);
  EXPECT_THROW(compileCircuit("nonexistent"), ParseError);
}

TEST(Registry, GeneratedRowsNameTheirGenerator) {
  for (const auto& info : paperBenchmarks()) {
    if (info.source == BenchmarkSource::Generated) {
      EXPECT_FALSE(info.generator.empty()) << info.name;
      EXPECT_THROW(standInCover(info.name), InvalidArgument) << info.name;
    } else {
      EXPECT_TRUE(info.generator.empty()) << info.name;
    }
  }
  EXPECT_EQ(findBenchmark("rd53").generator, "weight5");
  EXPECT_EQ(findBenchmark("rd73").generator, "weight7");
  EXPECT_EQ(findBenchmark("rd84").generator, "weight8");
  EXPECT_EQ(findBenchmark("sqrt8").generator, "sqrt8");
}

TEST(Registry, SyntheticStandInsMatchPaperStats) {
  for (const auto& info : paperBenchmarks()) {
    if (info.source != BenchmarkSource::Synthetic) continue;
    const std::shared_ptr<const Circuit> circuit = compileCircuit(info.name);
    const Cover& cover = circuit->cover;
    EXPECT_EQ(cover, standInCover(info.name)) << info.name;
    EXPECT_EQ(cover.nin(), info.inputs) << info.name;
    EXPECT_EQ(cover.nout(), info.outputs) << info.name;
    EXPECT_EQ(cover.size(), info.products) << info.name;
    // misex3c's printed area (11856) disagrees with the paper's own formula
    // ((197+14)(56) = 11816); its note documents this.
    if (info.paperAreaTwoLevel && info.name != "misex3c") {
      EXPECT_EQ(twoLevelDims(cover).area(), *info.paperAreaTwoLevel) << info.name;
    }
  }
}

TEST(Registry, GeneratedCircuitsComputeTheRightFunction) {
  EXPECT_EQ(TruthTable::fromCover(compileCircuit("rd53")->cover), weightFunction(5));
  EXPECT_EQ(TruthTable::fromCover(compileCircuit("rd73")->cover), weightFunction(7));
}

TEST(Registry, Sqrt8UsesTheDual) {
  // Table II implements sqrt8 as its complement (bold row): both the source
  // cover and its espresso minimization compute NOT sqrt8.
  EXPECT_TRUE(findBenchmark("sqrt8").paperUsedDual);
  const TruthTable dual = sqrtFunction(8).complemented();
  EXPECT_EQ(TruthTable::fromCover(compileCircuit("sqrt8")->cover), dual);
  EXPECT_EQ(TruthTable::fromCover(espressoCircuit("sqrt8")->cover), dual);
}

TEST(Registry, Rd53MinimizedProductCountNearPaper) {
  const std::shared_ptr<const Circuit> circuit = espressoCircuit("rd53");
  const Cover& rd53 = circuit->cover;
  // The paper's espresso-minimized rd53 has P=31; our minimizer must land in
  // the same neighborhood (the generated circuit is the real function).
  EXPECT_GE(rd53.size(), 31u);
  EXPECT_LE(rd53.size(), 40u);
  EXPECT_EQ(TruthTable::fromCover(rd53), weightFunction(5));
}

TEST(Registry, StructureSeededCircuitsAreMultiOutputSafe) {
  const std::shared_ptr<const Circuit> circuit = compileCircuit("cordic");
  const Cover& cordic = circuit->cover;
  EXPECT_EQ(cordic.nin(), 23u);
  EXPECT_EQ(cordic.nout(), 2u);
  EXPECT_GT(cordic.size(), 500u);
}

TEST(Registry, EveryEntryLoads) {
  for (const auto& info : paperBenchmarks()) {
    const std::shared_ptr<const Circuit> c = compileCircuit(info.name);
    EXPECT_FALSE(c->cover.empty()) << info.name;
    EXPECT_EQ(c->label, info.name);
    EXPECT_EQ(findBenchmark(info.name).name, info.name);
  }
}

TEST(Registry, NotesDocumentSubstitutions) {
  for (const auto& info : paperBenchmarks()) EXPECT_FALSE(info.note.empty()) << info.name;
}

}  // namespace
}  // namespace mcx
