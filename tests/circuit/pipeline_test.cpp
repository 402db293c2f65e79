#include "circuit/pipeline.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "benchdata/registry.hpp"
#include "circuit/cache.hpp"
#include "circuit/registry.hpp"
#include "logic/espresso.hpp"
#include "logic/generators.hpp"
#include "logic/isop.hpp"
#include "logic/pla.hpp"
#include "logic/quine_mccluskey.hpp"
#include "logic/truth_table.hpp"
#include "netlist/nand_mapper.hpp"
#include "util/error.hpp"
#include "xbar/multilevel_layout.hpp"

#ifndef MCX_REPO_ROOT
#error "MCX_REPO_ROOT must point at the repository root (set by CMake)"
#endif

namespace mcx {
namespace {

const std::string kAdderPla = std::string(MCX_REPO_ROOT) + "/examples/data/adder.pla";

std::string bitsText(const BitMatrix& bits) {
  std::string text = std::to_string(bits.rows()) + "x" + std::to_string(bits.cols()) + "\n";
  for (std::size_t r = 0; r < bits.rows(); ++r) {
    for (std::size_t c = 0; c < bits.cols(); ++c) text += bits.test(r, c) ? '1' : '0';
    text += '\n';
  }
  return text;
}

struct PinnedCircuit {
  const char* name;
  const char* synth;
  std::size_t products;
  std::uint64_t cover;
  std::uint64_t fm;
};

// fnv1a64 digests of the registry covers (PLA text) and their crossbar
// bits, recorded from the benchmark loaders this pipeline replaced: every
// committed BENCH_*.json count was measured on these covers.
constexpr PinnedCircuit kPinnedCircuits[] = {
    {"rd53", "none", 35, 0xf9f297993a21f92eull, 0x90144d9f5d9eb4c0ull},
    {"rd53", "espresso", 32, 0xfb9f4df6505ee0a5ull, 0x1b66370cb9ff164aull},
    {"squar5", "none", 25, 0x770c9812b433b010ull, 0xfd2be7394a7a02c5ull},
    {"bw", "none", 22, 0xfd09468900ad5ae3ull, 0x493402cc30df94d9ull},
    {"inc", "none", 30, 0xfaf321d1542f0e6eull, 0xed06b84189b108bbull},
    {"misex1", "none", 12, 0x2f924327f3cb6ac7ull, 0x586ef76cbcd6d186ull},
    {"sqrt8", "none", 24, 0xb887974b222eabcdull, 0x606182081cd8d884ull},
    {"sqrt8", "espresso", 22, 0x0f70939bbca82259ull, 0x5f45339b23c434f2ull},
    {"sao2", "none", 58, 0x50f32329685b45fcull, 0xe2f2c7ac754f3b62ull},
    {"rd73", "none", 147, 0x2c2c88fc7798c998ull, 0x1c7690ebac4bf62eull},
    {"rd73", "espresso", 141, 0x8403f393696d2326ull, 0xd12db17d9f305dcdull},
    {"clip", "none", 120, 0x15b1a383a351fdb7ull, 0xa3b3ad3fb5540788ull},
    {"rd84", "none", 294, 0x4ebc6a3a148553faull, 0xddd26d59ce896e13ull},
    {"rd84", "espresso", 284, 0x4d2f38958a0b69b3ull, 0xc00c8de326b84880ull},
    {"ex1010", "none", 284, 0xda7b09b8ef0624efull, 0xabf746a76f3938feull},
    {"table3", "none", 175, 0xbfed411fd151a6e8ull, 0x178bd92fd1e5abbfull},
    {"misex3c", "none", 197, 0xd3db6cf92424667bull, 0x80bbd0ced9a22cefull},
    {"exp5", "none", 74, 0x2047b65f3b5eb2bdull, 0x9e93a5873a6e116dull},
    {"apex4", "none", 436, 0xa2da67a530931719ull, 0x51caabe717436f12ull},
    {"alu4", "none", 575, 0xfa9633024adfbffdull, 0xa74e90f6c50ad11cull},
    {"con1", "none", 9, 0xc3e4f785ab2f1b74ull, 0xc8ed38a51c4e5a39ull},
    {"b12", "none", 43, 0x07be8ab6dcb51ce6ull, 0x8de3bebc4f7eaaf1ull},
    {"t481", "none", 256, 0x993961530d4e5d17ull, 0x5fb83d8e6b3750f2ull},
    {"cordic", "none", 1805, 0xff8fd435388d4ac0ull, 0x5e34cf7e7d3df7e1ull},
};

TEST(CircuitPipeline, RegistryCoversMatchPinnedDigests) {
  std::size_t pinnedNone = 0;
  for (const PinnedCircuit& pin : kPinnedCircuits) {
    const std::string what = std::string(pin.name) + " synth=" + pin.synth;
    const Circuit circuit = buildCircuit(makeCircuitSpec(
        std::string(R"({"circuit":")") + pin.name + R"(","synth":")" + pin.synth + "\"}"));
    EXPECT_EQ(circuit.cover.size(), pin.products) << what;
    EXPECT_EQ(fnv1a64(writePla(circuit.cover)), pin.cover) << what;
    EXPECT_EQ(fnv1a64(bitsText(circuit.fm.bits())), pin.fm) << what;
    EXPECT_FALSE(circuit.layout.has_value()) << what;
    EXPECT_EQ(circuit.label, pin.name) << what;
    EXPECT_EQ(circuit.stats.products, pin.products) << what;
    pinnedNone += std::string(pin.synth) == "none" ? 1 : 0;
  }
  EXPECT_EQ(pinnedNone, paperBenchmarks().size());
}

TEST(CircuitPipeline, RegistryMultiLevelMatchesPinnedDigests) {
  struct PinnedLayout {
    const char* name;
    std::uint64_t fm;
    std::uint64_t connOfGate;
  };
  constexpr PinnedLayout kPinnedLayouts[] = {
      {"t481", 0xd18fd562060d45e6ull, 0xb2e159bc5f7ab476ull},
      {"bw", 0x43d8b1e6439b139eull, 0x9d4d37639eef6dccull},
  };
  for (const PinnedLayout& pin : kPinnedLayouts) {
    CircuitSpec spec = makeCircuitSpec(pin.name);
    spec.realize = CircuitSpec::Realize::MultiLevel;
    const Circuit circuit = buildCircuit(spec);
    ASSERT_TRUE(circuit.layout.has_value()) << pin.name;
    std::string conn;
    for (const std::size_t column : circuit.layout->connOfGate)
      conn += std::to_string(column) + ",";
    EXPECT_EQ(fnv1a64(bitsText(circuit.fm.bits())), pin.fm) << pin.name;
    EXPECT_EQ(fnv1a64(conn), pin.connOfGate) << pin.name;
  }
}

TEST(CircuitPipeline, RegistryGeneratedRowsAreTheirGeneratorsIsop) {
  // Generated rows are the ISOP of their generator's truth table (sqrt8:
  // of its complement, the paper's dual); espresso then runs as for every
  // source, with an empty don't-care set.
  struct Reference {
    const char* name;
    TruthTable function;
  };
  const Reference references[] = {{"rd53", weightFunction(5)},
                                  {"rd73", weightFunction(7)},
                                  {"rd84", weightFunction(8)},
                                  {"sqrt8", sqrtFunction(8).complemented()}};
  for (const Reference& ref : references) {
    const Cover isop = isopCover(ref.function);
    const Circuit none = buildCircuit(makeCircuitSpec(ref.name));
    EXPECT_EQ(none.cover, isop) << ref.name;
    const Circuit polished = buildCircuit(
        makeCircuitSpec(std::string(R"({"circuit":")") + ref.name + R"(","synth":"espresso"})"));
    EXPECT_EQ(polished.cover, espressoMinimize(isop)) << ref.name;
    // The source statistics describe the ISOP, the products the minimized cover.
    EXPECT_EQ(polished.stats.sourceProducts, isop.size()) << ref.name;
    EXPECT_EQ(polished.stats.products, polished.cover.size()) << ref.name;
  }
}

TEST(CircuitPipeline, RegistrySynthStepsRunLikeAnyOtherSource) {
  const Circuit none = buildCircuit(makeCircuitSpec("bw"));
  const Circuit espresso = buildCircuit(makeCircuitSpec(R"({"circuit":"bw","synth":"espresso"})"));
  EXPECT_EQ(espresso.cover, espressoMinimize(none.cover));
  EXPECT_NE(espresso.cover, none.cover);
  EXPECT_EQ(none.cover.size(), 22u);
  EXPECT_EQ(espresso.cover.size(), 18u);

  const TruthTable function = TruthTable::fromCover(none.cover);
  for (const char* synth : {"espresso", "qm", "isop"}) {
    const Circuit minimized = buildCircuit(
        makeCircuitSpec(std::string(R"({"circuit":"bw","synth":")") + synth + "\"}"));
    EXPECT_EQ(TruthTable::fromCover(minimized.cover), function) << synth;
  }
}

TEST(CircuitPipeline, GeneratorEspressoMatchesHandSynthesis) {
  // rd53-min is the exact cover the multilevel defect suite always built:
  // espressoMinimize(isopCover(weightFunction(5))).
  const Circuit circuit = buildCircuit(makeCircuitSpec("rd53-min"));
  EXPECT_EQ(circuit.cover, espressoMinimize(isopCover(weightFunction(5))));
  EXPECT_EQ(circuit.label, "rd53");
  EXPECT_GE(circuit.stats.sourceProducts, circuit.stats.products);
}

TEST(CircuitPipeline, FileSourceRoundTripsTheFunction) {
  const Circuit circuit = buildCircuit(makeCircuitSpec("file:" + kAdderPla));
  EXPECT_EQ(circuit.cover.nin(), 4u);
  EXPECT_EQ(circuit.cover.nout(), 3u);
  EXPECT_EQ(circuit.label, "adder.pla");
  // The fixture is a real 2-bit adder: the compiled cover must compute it.
  EXPECT_EQ(TruthTable::fromCover(circuit.cover), adderFunction(2));

  // Synthesis steps preserve the function.
  for (const char* synth : {"espresso", "qm", "isop"}) {
    const Circuit minimized = buildCircuit(makeCircuitSpec(
        std::string(R"({"circuit":"file:)") + kAdderPla + R"(","synth":")" + synth + "\"}"));
    EXPECT_EQ(TruthTable::fromCover(minimized.cover), adderFunction(2)) << synth;
  }
}

TEST(CircuitPipeline, InlineSourcesCompile) {
  const Circuit pla =
      buildCircuit(makeCircuitSpec("pla:.i 2\n.o 1\n11 1\n00 1\n.e"));
  EXPECT_EQ(pla.cover.size(), 2u);

  const Circuit sop = buildCircuit(makeCircuitSpec("sop:x1 x2 + !x1 !x2"));
  EXPECT_EQ(TruthTable::fromCover(sop.cover), TruthTable::fromCover(pla.cover));
}

TEST(CircuitPipeline, QmSynthesisIsExact) {
  // XOR of 4: QM must land on the 8-minterm optimum.
  const Circuit circuit =
      buildCircuit(makeCircuitSpec(R"({"circuit":"gen:parity4","synth":"qm"})"));
  EXPECT_EQ(circuit.cover.size(), quineMcCluskey(parityFunction(4), 0).cover.size());
  EXPECT_EQ(TruthTable::fromCover(circuit.cover), parityFunction(4));
}

TEST(CircuitPipeline, FactoringKnobSelectsTheMapper) {
  const std::string base = R"({"circuit":"t481","realize":"multilevel","factoring":")";
  const Circuit flat = buildCircuit(makeCircuitSpec(base + "flat\"}"));
  const Circuit kernel = buildCircuit(makeCircuitSpec(base + "kernel\"}"));
  const Circuit best = buildCircuit(makeCircuitSpec(base + "best\"}"));
  // t481 is the structured circuit: kernel factoring must beat the flat
  // NAND-NAND form, and "best" is by construction no worse than either.
  EXPECT_LT(kernel.dims().area(), flat.dims().area());
  EXPECT_LE(best.dims().area(), kernel.dims().area());
  EXPECT_EQ(best.dims().area(),
            multiLevelDims(mapToNandBest(best.cover)).area());
}

TEST(CircuitPipeline, MaxFaninBoundsTheNetwork) {
  const Circuit bounded = buildCircuit(
      makeCircuitSpec(R"({"circuit":"rd53-min","realize":"multilevel","maxFanin":2})"));
  ASSERT_TRUE(bounded.layout.has_value());
  const NandNetwork& net = bounded.layout->network;
  for (const auto gate : net.gates()) EXPECT_LE(net.fanins(gate).size(), 2u);
}

TEST(CircuitPipeline, SemanticErrors) {
  // QM is exact and bounded (12 inputs), for inline sources and registry
  // circuits alike: t481 has 16 inputs. ISOP stops at 16; cordic has 23.
  EXPECT_THROW(buildCircuit(makeCircuitSpec(
                   R"({"circuit":"sop:x1 x13 + x14 x15 x16","synth":"qm"})")),
               ParseError);
  EXPECT_THROW(buildCircuit(makeCircuitSpec(R"({"circuit":"t481","synth":"qm"})")),
               ParseError);
  EXPECT_THROW(buildCircuit(makeCircuitSpec(R"({"circuit":"cordic","synth":"isop"})")),
               ParseError);
  // Unknown registry name straight into the pipeline (bypassing the circuit
  // registry's eager check).
  CircuitSpec unknown;
  unknown.source = CircuitSpec::Source::Registry;
  unknown.name = "no-such";
  EXPECT_THROW(buildCircuit(unknown), InvalidArgument);
  // Malformed inline PLA fails in the parser, with a line number.
  try {
    buildCircuit(makeCircuitSpec("pla:.i 2\n.o 1\n11 1\n"));
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("missing .e"), std::string::npos);
  }
}

}  // namespace
}  // namespace mcx
