#include "circuit/pipeline.hpp"

#include <cstdint>
#include <utility>

#include "benchdata/registry.hpp"
#include "logic/espresso.hpp"
#include "logic/generators.hpp"
#include "logic/isop.hpp"
#include "logic/pla.hpp"
#include "logic/quine_mccluskey.hpp"
#include "logic/sop_parser.hpp"
#include "logic/truth_table.hpp"
#include "netlist/nand_mapper.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/stopwatch.hpp"

namespace mcx {

namespace {

TruthTable generatorTable(const std::string& id) {
  // parseGeneratorId is the single validator (family list + arity bound);
  // this is pure dispatch.
  const GeneratorId gen = parseGeneratorId(id);
  if (gen.family == "weight") return weightFunction(gen.size);
  if (gen.family == "sqrt") return sqrtFunction(gen.size);
  if (gen.family == "parity") return parityFunction(gen.size);
  if (gen.family == "majority") return majorityFunction(gen.size);
  if (gen.family == "adder") return adderFunction(gen.size);
  if (gen.family == "nn-") return nnLayerFunction(gen.size, gen.size2);
  throw InvalidArgument("unknown generator family in \"" + id + "\"");
}

/// Exact minimum cover: per-output Quine-McCluskey, merged so cubes with
/// identical input parts share a row (the same merge isopCover performs).
Cover qmCover(const Cover& on, const Cover& dc) {
  const TruthTable ttOn = TruthTable::fromCover(on);
  const TruthTable ttDc = TruthTable::fromCover(dc);
  Cover result(on.nin(), on.nout());
  for (std::size_t o = 0; o < on.nout(); ++o) {
    for (const Cube& c : quineMcCluskey(ttOn, ttDc, o).cover) {
      Cube wide(on.nin(), on.nout());
      for (std::size_t v = 0; v < on.nin(); ++v) wide.setLit(v, c.lit(v));
      wide.setOut(o);
      result.add(std::move(wide));
    }
  }
  result.mergeDuplicateInputs();
  return result;
}

}  // namespace

SynthesizedCover buildSynthesizedCover(const CircuitSpec& spec) {
  // Armed only under test/diagnosis: lets the serve suite prove that a
  // synthesis failure surfaces as a structured `internal` error instead of
  // taking the daemon down.
  faultinject::onSite("circuit.synthesize");

  SynthesizedCover result;

  // --- source: produce the base ON (and don't-care) cover ------------------
  Stopwatch watch;
  Cover on;
  Cover dc;
  switch (spec.source) {
    case CircuitSpec::Source::Registry: {
      // A paper circuit's source cover: generated rows are the ISOP of their
      // generator's truth table (the complement's for the paper's dual
      // rows, the Table II bold entries); stand-ins come built to the
      // paper's (I, O, P). The synthesis step below applies as for any
      // other source.
      const BenchmarkInfo& info = findBenchmark(spec.name);
      if (info.source == BenchmarkSource::Generated) {
        const TruthTable tt = generatorTable(info.generator);
        on = isopCover(info.paperUsedDual ? tt.complemented() : tt);
      } else {
        on = standInCover(info.name);
      }
      break;
    }
    case CircuitSpec::Source::File: {
      const PlaFile pla = readPlaFile(spec.name);
      on = pla.on;
      dc = pla.dc;
      break;
    }
    case CircuitSpec::Source::InlinePla: {
      const PlaFile pla = parsePlaString(spec.text);
      on = pla.on;
      dc = pla.dc;
      break;
    }
    case CircuitSpec::Source::InlineSop: {
      on = parseSop(spec.text);
      dc = Cover(on.nin(), on.nout());
      break;
    }
    case CircuitSpec::Source::Generator: {
      // Generated functions are born as ISOP covers of their truth table
      // (as are the registry's generated rows), so synth=isop is a
      // no-op for them and synth=espresso is the classic polish.
      on = isopCover(generatorTable(spec.name));
      dc = Cover(on.nin(), on.nout());
      break;
    }
    case CircuitSpec::Source::Cover: {
      MCX_REQUIRE(spec.cover.has_value(), "circuit spec: Cover source without a cover");
      on = *spec.cover;
      dc = Cover(on.nin(), on.nout());
      break;
    }
  }
  if (dc.nin() != on.nin() || dc.nout() != on.nout()) dc = Cover(on.nin(), on.nout());
  result.sourceMillis = watch.lapMillis();  // lap: the synth stage times from here
  result.sourceProducts = on.size();

  // --- synthesis ------------------------------------------------------------
  switch (spec.synth) {
    case CircuitSpec::Synth::None:
      break;
    case CircuitSpec::Synth::Espresso:
      on = espressoMinimize(on, dc);
      break;
    case CircuitSpec::Synth::Qm:
      if (on.nin() > 12)
        throw ParseError("circuit spec: synth qm is exact and limited to 12 inputs (got " +
                         std::to_string(on.nin()) + ")");
      on = qmCover(on, dc);
      break;
    case CircuitSpec::Synth::Isop:
      if (on.nin() > 16)
        throw ParseError("circuit spec: synth isop round-trips an explicit truth table, "
                         "limited to 16 inputs (got " + std::to_string(on.nin()) + ")");
      if (spec.source != CircuitSpec::Source::Generator)
        on = dc.empty() ? isopCover(TruthTable::fromCover(on))
                        : isopCover(TruthTable::fromCover(on), TruthTable::fromCover(dc));
      break;
  }
  result.synthMillis = watch.millis();
  result.on = std::move(on);
  result.dc = std::move(dc);
  return result;
}

Circuit realizeCircuit(const CircuitSpec& spec, const SynthesizedCover& synthesized) {
  Circuit circuit;
  circuit.spec = spec;
  circuit.label = spec.displayLabel();
  circuit.cover = synthesized.on;
  circuit.dc = synthesized.dc;
  circuit.stats.sourceProducts = synthesized.sourceProducts;
  circuit.stats.products = synthesized.on.size();
  circuit.stats.sourceMillis = synthesized.sourceMillis;
  circuit.stats.synthMillis = synthesized.synthMillis;

  Stopwatch watch;
  if (spec.realize == CircuitSpec::Realize::TwoLevel) {
    circuit.fm = buildFunctionMatrix(circuit.cover);
  } else {
    NandNetwork net;
    if (spec.factoring == CircuitSpec::Factoring::Best) {
      net = mapToNandBest(circuit.cover, spec.maxFanin);
    } else {
      NandMapOptions opts;
      opts.maxFanin = spec.maxFanin;
      opts.factored = spec.factoring != CircuitSpec::Factoring::Flat;
      opts.kernelFactoring = spec.factoring == CircuitSpec::Factoring::Kernel;
      net = mapToNand(circuit.cover, opts);
    }
    circuit.layout = buildMultiLevelLayout(std::move(net));
    circuit.fm = circuit.layout->fm;
  }
  circuit.stats.realizeMillis = watch.millis();
  return circuit;
}

Circuit buildCircuit(const CircuitSpec& spec) {
  return realizeCircuit(spec, buildSynthesizedCover(spec));
}

namespace {

std::size_t bitsBytes(std::size_t widthBits) {
  return ((widthBits + 63) / 64) * sizeof(std::uint64_t) + 3 * sizeof(void*);
}

std::size_t coverBytes(const Cover& cover) {
  // Each cube holds two DynBits (input pairs + outputs) plus vector
  // bookkeeping; the cube vector itself is the per-entry overhead.
  const std::size_t perCube =
      bitsBytes(2 * cover.nin()) + bitsBytes(cover.nout()) + sizeof(Cube);
  return sizeof(Cover) + cover.size() * perCube;
}

std::size_t matrixBytes(const FunctionMatrix& fm) {
  return sizeof(FunctionMatrix) + fm.rows() * bitsBytes(fm.cols());
}

std::size_t layoutBytes(const MultiLevelLayout& layout) {
  std::size_t gateBytes = 0;
  for (const auto gate : layout.network.gates())
    gateBytes += 64 + layout.network.fanins(gate).size() * 8;
  return sizeof(MultiLevelLayout) + gateBytes + matrixBytes(layout.fm) +
         layout.connOfGate.size() * sizeof(std::size_t);
}

}  // namespace

std::size_t SynthesizedCover::estimatedBytes() const {
  return sizeof(SynthesizedCover) + coverBytes(on) + coverBytes(dc);
}

std::size_t Circuit::estimatedBytes() const {
  std::size_t bytes = sizeof(Circuit) + coverBytes(cover) + coverBytes(dc) +
                      matrixBytes(fm) + label.size();
  if (layout.has_value()) bytes += layoutBytes(*layout);
  return bytes;
}

}  // namespace mcx
