// Ablation A5 (the paper's closing future-work item): defect-tolerant
// mapping of MULTI-LEVEL designs.
//
// The row-matching formulation carries over unchanged — the multi-level
// function matrix has gate rows instead of minterm rows plus connection
// columns — so HBA and EA run as-is. Every successful mapping is
// additionally validated end-to-end with the behavioral simulator.
//
// One BENCH grid: every cell runs the threads sweep (1/2/4/hw), success
// counts and row assignments must be identical at every thread count (the
// engine's determinism contract), and the cells with their wall-clock per
// thread count are written as BENCH_defect_mc.json (--json) to track the
// perf trajectory.
#include <iostream>
#include <utility>
#include <vector>

#include "api/driver.hpp"
#include "circuit/registry.hpp"
#include "grid.hpp"
#include "logic/truth_table.hpp"
#include "mc/executor.hpp"
#include "sim/crossbar_sim.hpp"
#include "util/error.hpp"
#include "util/text_table.hpp"

namespace {

using namespace mcx;

/// Simulate up to 10 of the cell's successful mappings on 16 random inputs
/// each: every sample's defect map is re-derived from its engine stream
/// (splitSampleStreams(seed, n)[s]). Returns {validated, checks}.
std::pair<std::size_t, std::size_t> spotCheck(const bench::Cell& cell) {
  const Circuit& circuit = *cell.circuit;
  const DefectExperimentConfig& cfg = cell.result.config;
  const TruthTable ref = TruthTable::fromCover(circuit.cover);
  const std::vector<Rng> streams = splitSampleStreams(cfg.seed, cfg.samples);
  std::size_t validated = 0, checks = 0;
  for (std::size_t s = 0; s < cfg.samples && checks < 10; ++s) {
    const MappingResult& mapping = cell.result.outcome.mappings[s];
    if (!mapping.success) continue;
    ++checks;
    Rng sampleRng = streams[s];
    const DefectMap defects = cfg.model->sample(circuit.fm.rows(), circuit.fm.cols(), sampleRng);
    bool good = true;
    Rng inputRng(900 + s);
    for (int check = 0; check < 16 && good; ++check) {
      DynBits in(circuit.cover.nin());
      std::size_t minterm = 0;
      for (std::size_t v = 0; v < circuit.cover.nin(); ++v) {
        const bool bit = inputRng.bernoulli(0.5);
        in.set(v, bit);
        minterm |= static_cast<std::size_t>(bit) << v;
      }
      const DynBits out = simulateMultiLevel(*circuit.layout, mapping.rowAssignment, defects, in);
      for (std::size_t o = 0; o < circuit.cover.nout(); ++o)
        if (out.test(o) != ref.get(o, minterm)) good = false;
    }
    if (good) ++validated;
  }
  return {validated, checks};
}

int runMultilevelDefect(const std::vector<std::string>& args) {
  // Default workloads as circuit-pipeline declarations: the generator
  // functions espresso-polished, the stand-ins as built (synth=none). The
  // committed BENCH_defect_mc.json success counts pin these covers.
  bench::Grid grid;
  grid.bench = "multilevel_defect";
  grid.circuits = {"rd53-min", "sqrt8-min", R"({"circuit": "t481", "label": "t481 stand-in"})",
                   // Large multi-level instance (289x299 FM): the one that
                   // actually exercises the engine's solver and threading path.
                   "bw"};
  grid.multiLevel = true;

  bench::CommonOptions common;
  bool userWorkloads = false;
  cli::ArgParser parser("mcx_bench multilevel",
                        "defect-tolerant mapping of multi-level designs (threads sweep)");
  common.addSamplesTo(parser);
  common.addJsonTo(parser);
  parser.addCallback("--circuit-spec", "NAME|SPEC",
                     "replace the default workloads with this circuit declaration "
                     "(preset name, file:/pla:/sop:/gen: source or JSON spec; "
                     "realized multi-level; repeatable)",
                     [&grid, &userWorkloads](const std::string& value) {
                       // This suite always realizes multi-level; silently
                       // overriding an explicit contrary knob would run a
                       // different pipeline than the accepted declaration.
                       const CircuitSpec spec = makeCircuitSpec(value);
                       if (spec.realizeExplicit && !spec.multiLevel())
                         throw InvalidArgument(
                             "--circuit-spec: this suite realizes circuits "
                             "multi-level; drop the \"realize\" member");
                       if (!userWorkloads) grid.circuits.clear();
                       userWorkloads = true;
                       grid.circuits.push_back(value);
                     });
  parser.addAction("--list-circuits", "list the circuit presets", bench::listCircuits);
  if (const auto code = bench::parseSuiteArgs(parser, args)) return *code;

  // The legacy IidBernoulli draw (the paper's one-draw-per-crosspoint
  // stream: the bit-identity regression surface) and the same rate through
  // the O(defects) sparse sampler — statistically identical, different
  // stream, and the wall-clock row the hot-path speedup is measured on.
  grid.scenarios = {bench::kLegacyScenarioDecl, "paper-iid"};
  grid.rates = {0.10};
  grid.mappers = {"hba", "ea"};
  grid.samples = common.samplesOr(100);
  grid.seed = 0x51a;
  grid.json = common.jsonOr("BENCH_defect_mc.json");
  std::vector<bench::Cell> cells = bench::runGrid(grid);

  // Per circuit: HBA legacy, EA legacy, HBA sparse, EA sparse. The HBA
  // mappings of both samplers are simulated.
  TextTable table({"circuit", "ML area", "HBA Psucc", "EA Psucc", "HBA 1T s", "sparse 1T s",
                   "sparse gain", "det", "sim-validated"});
  for (std::size_t c = 0; c < cells.size(); c += 4) {
    std::size_t validated = 0, checks = 0;
    for (bench::Cell* hba : {&cells[c], &cells[c + 2]}) {
      const auto [ok, n] = spotCheck(*hba);
      hba->columns = {{"sim_validated", double(ok)}, {"sim_checks", double(n)}};
      validated += ok;
      checks += n;
    }
    const double legacyWall = cells[c].result.mcRunMillis / 1e3;
    const double sparseWall = cells[c + 2].result.mcRunMillis / 1e3;
    const bool deterministic = cells[c].deterministic && cells[c + 1].deterministic &&
                               cells[c + 2].deterministic && cells[c + 3].deterministic;
    table.addRow({cells[c].result.circuit, std::to_string(cells[c].result.area()),
                  TextTable::percent(cells[c + 2].result.successRate()),
                  TextTable::percent(cells[c + 3].result.successRate()),
                  TextTable::num(legacyWall, 3), TextTable::num(sparseWall, 3),
                  sparseWall > 0 ? TextTable::num(legacyWall / sparseWall, 2) + "x" : "-",
                  deterministic ? "yes" : "NO",
                  std::to_string(validated) + "/" + std::to_string(checks)});
  }
  bench::writeGridJson(grid, cells);

  std::cout << "Defect-tolerant mapping of multi-level designs (paper future work), "
            << grid.samples << " samples per cell, 10% stuck-at-open\n\n";
  std::cout << table << "\n";
  std::cout << "every simulated spot-check of a successful mapping must pass (last column\n"
               "n/n): the mapped multi-level crossbar computes the original function.\n"
               "det = success counts and row assignments identical across the threads\n"
               "sweep (1/2/4/hw) for a fixed seed, for the legacy AND sparse samplers.\n"
               "sparse gain = legacy 1T wall / sparse 1T wall on this run (the tracked\n"
               "hot-path speedup is vs the committed baseline JSON).\n"
               "JSON written to " << *grid.json << "\n";
  return bench::allDeterministic(cells) ? 0 : 1;
}

}  // namespace

MCX_BENCH_SUITE("multilevel",
                "A5: multi-level defect mapping + engine determinism sweep (BENCH_defect_mc)",
                runMultilevelDefect);
