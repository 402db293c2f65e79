// Cross-oracle consistency: every independent representation of the same
// function (cover, ISOP, espresso output, NAND network, factor tree, BDD,
// Quine-McCluskey exact cover) must agree.
#include <gtest/gtest.h>

#include "circuit/cache.hpp"
#include "logic/bdd.hpp"
#include "logic/espresso.hpp"
#include "logic/generators.hpp"
#include "logic/isop.hpp"
#include "logic/quine_mccluskey.hpp"
#include "netlist/export.hpp"
#include "netlist/kernels.hpp"
#include "netlist/nand_mapper.hpp"

namespace mcx {
namespace {

TEST(OracleConsistency, AllRepresentationsOfRd53Agree) {
  const TruthTable tt = weightFunction(5);
  const Cover isopC = isopCover(tt);
  const Cover minimized = espressoMinimize(isopC);
  const NandNetwork quick = mapToNand(minimized);
  const NandNetwork best = mapToNandBest(minimized);

  BddManager mgr(5);
  for (std::size_t o = 0; o < 3; ++o) {
    const BddRef ref = mgr.fromTruthTable(tt.bits(o));
    EXPECT_EQ(mgr.fromCover(isopC, o), ref) << "o=" << o;
    EXPECT_EQ(mgr.fromCover(minimized, o), ref) << "o=" << o;
  }
  EXPECT_EQ(quick.toTruthTable(), tt);
  EXPECT_EQ(best.toTruthTable(), tt);
}

TEST(OracleConsistency, QuineMcCluskeyBoundsEspressoOnBenchmarks) {
  // Per-output exact minima lower-bound the heuristic per-output covers.
  const TruthTable tt = weightFunction(5);
  const Cover minimized = espressoMinimize(isopCover(tt));
  for (std::size_t o = 0; o < tt.nout(); ++o) {
    const QmResult exact = quineMcCluskey(tt, o);
    const std::size_t heuristicPerOutput = minimized.projection(o).size();
    EXPECT_LE(exact.cover.size(), heuristicPerOutput) << "o=" << o;
    EXPECT_EQ(ttOfCubes(exact.cover, 5), tt.bits(o)) << "o=" << o;
  }
}

TEST(OracleConsistency, KernelAndQuickFactorAgreeViaBdd) {
  Rng rng(2025);
  for (int rep = 0; rep < 10; ++rep) {
    RandomSopOptions opts;
    opts.nin = 7;
    opts.nout = 1;
    opts.products = 10;
    opts.literalsPerProduct = 3.0;
    const Cover cover = randomSop(opts, rng);
    const auto proj = cover.projection(0);
    BddManager mgr(7);
    const BddRef ref = mgr.fromCover(cover, 0);

    const NandNetwork quick = mapToNand(cover);
    const NandNetwork best = mapToNandBest(cover);
    EXPECT_EQ(mgr.fromTruthTable(quick.toTruthTable().bits(0)), ref) << "rep=" << rep;
    EXPECT_EQ(mgr.fromTruthTable(best.toTruthTable().bits(0)), ref) << "rep=" << rep;
    (void)proj;
  }
}

TEST(OracleConsistency, BestMapperNeverWorseThanEitherStrategy) {
  Rng rng(2026);
  for (int rep = 0; rep < 15; ++rep) {
    RandomSopOptions opts;
    opts.nin = 8;
    opts.nout = 2;
    opts.products = 12;
    const Cover cover = randomSop(opts, rng);
    const auto cost = [](const NandNetwork& n) {
      return n.gateCount() + n.interconnectCount();
    };
    NandMapOptions flat;
    flat.factored = false;
    const std::size_t bestCost = cost(mapToNandBest(cover));
    EXPECT_LE(bestCost, cost(mapToNand(cover, flat))) << "rep=" << rep;
    EXPECT_LE(bestCost, cost(mapToNand(cover))) << "rep=" << rep;
  }
}

TEST(OracleConsistency, GeneratedBenchmarksRoundTripThroughExports) {
  // The exporters must at least produce structurally complete artifacts for
  // every generated benchmark.
  for (const char* name : {"rd53", "sqrt8"}) {
    const std::shared_ptr<const Circuit> bench = compileCircuit(name);
    const NandNetwork net = mapToNandBest(bench->cover);
    const std::string dot = toDot(net, name);
    const std::string verilog = toVerilog(net, name);
    EXPECT_NE(dot.find("digraph"), std::string::npos) << name;
    for (std::size_t o = 0; o < bench->cover.nout(); ++o) {
      std::string port = "o";  // append form: GCC 12 -Wrestrict (PR 105329)
      port += std::to_string(o + 1);
      EXPECT_NE(verilog.find(port), std::string::npos) << name;
    }
    // One gate declaration per NAND gate.
    std::size_t gates = 0;
    for (std::size_t pos = verilog.find("nand ("); pos != std::string::npos;
         pos = verilog.find("nand (", pos + 1))
      ++gates;
    EXPECT_EQ(gates, net.gateCount()) << name;
  }
}

}  // namespace
}  // namespace mcx
