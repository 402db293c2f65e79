// Ablation A5 (the paper's closing future-work item): defect-tolerant
// mapping of MULTI-LEVEL designs.
//
// The row-matching formulation carries over unchanged — the multi-level
// function matrix has gate rows instead of minterm rows plus connection
// columns — so HBA and EA run as-is. Every successful mapping is
// additionally validated end-to-end with the behavioral simulator.
//
// This bench also drives the parallel Monte Carlo engine through a threads
// sweep (1/2/4/hw): success counts and row assignments must be identical at
// every thread count (the engine's determinism contract), and wall-clock
// per sweep is emitted as machine-readable JSON (MCX_BENCH_JSON, default
// BENCH_defect_mc.json) to track the perf trajectory.
#include <fstream>
#include <iostream>
#include <vector>

#include "api/driver.hpp"
#include "circuit/cache.hpp"
#include "circuit/registry.hpp"
#include "defect_sweep.hpp"
#include "logic/truth_table.hpp"
#include "map/exact_mapper.hpp"
#include "map/hybrid_mapper.hpp"
#include "sim/crossbar_sim.hpp"
#include "util/error.hpp"
#include "util/text_table.hpp"

namespace {

int runMultilevelDefect(const std::vector<std::string>& args) {
  using namespace mcx;

  // Default workloads as circuit-pipeline declarations: the generator
  // functions espresso-polished, the stand-ins as built (synth=none). The
  // committed BENCH_defect_mc.json success counts pin these covers.
  struct Workload {
    std::string label;  ///< committed JSON circuit name
    std::string spec;
  };
  std::vector<Workload> workloads{
      {"rd53", "rd53-min"},
      {"sqrt8", "sqrt8-min"},
      {"t481 stand-in", "t481"},
      // Large multi-level instance (289x299 FM): the one that actually
      // exercises the engine's solver and threading path.
      {"bw", "bw"},
  };

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
                     [&workloads, &userWorkloads](const std::string& value) {
                       const CircuitSpec spec = makeCircuitSpec(value);
                       // This suite always realizes multi-level; silently
                       // overriding an explicit contrary knob would run a
                       // different pipeline than the accepted declaration.
                       if (spec.realizeExplicit && !spec.multiLevel())
                         throw InvalidArgument(
                             "--circuit-spec: this suite realizes circuits "
                             "multi-level; drop the \"realize\" member");
                       if (!userWorkloads) workloads.clear();
                       userWorkloads = true;
                       workloads.push_back({spec.displayLabel(), value});
                     });
  parser.addAction("--list-circuits", "list the circuit presets", bench::listCircuits);
  if (const auto code = bench::parseSuiteArgs(parser, args)) return *code;

  const std::size_t samples = common.samplesOr(100);
  const std::string jsonPath = common.jsonOr("BENCH_defect_mc.json");
  std::cout << "Defect-tolerant mapping of multi-level designs (paper future work), "
            << samples << " samples per cell, 10% stuck-at-open\n\n";

  const std::vector<std::size_t> sweep = benchutil::threadsSweep();
  std::ofstream jsonFile(jsonPath);
  JsonWriter json(jsonFile);
  json.beginObject();
  json.field("bench", "multilevel_defect");
  json.field("samples", samples);
  json.field("stuck_open_rate", 0.10);
  json.field("hardware_concurrency", resolveThreadCount(0));
  json.key("circuits").beginArray();

  TextTable table({"circuit", "ML area", "HBA Psucc", "EA Psucc", "HBA 1T s", "sparse 1T s",
                   "sparse gain", "det", "sim-validated"});
  bool allDeterministic = true;

  for (const Workload& w : workloads) {
    CircuitSpec spec = makeCircuitSpec(w.spec);
    spec.realize = CircuitSpec::Realize::MultiLevel;
    const std::shared_ptr<const Circuit> circuit = compileCircuit(spec);
    const MultiLevelLayout& layout = *circuit->layout;
    const FunctionMatrix& fm = circuit->fm;

    // Legacy IidBernoulli configuration: the paper's one-draw-per-crosspoint
    // stream, so these success counts are the bit-identity regression
    // surface of the committed JSON.
    DefectExperimentConfig cfg;
    cfg.samples = samples;
    cfg.model = std::make_shared<IidBernoulli>(0.10);
    cfg.seed = 0x51a;
    cfg.keepMappings = true;

    // Sparse configuration: same rate through the O(defects) sampler —
    // statistically identical, different stream, and the wall-clock row the
    // hot-path speedup target is measured on.
    DefectExperimentConfig sparseCfg = cfg;
    sparseCfg.model = std::make_shared<SparseIidBernoulli>(0.10, 0.0);

    json.beginObject();
    json.field("name", w.label);
    json.field("area", fm.dims().area());

    const HybridMapper hba;
    const ExactMapper ea;

    json.key("mappers").beginArray();
    const std::string& legacy = kLegacyScenario;
    const std::string sparse = sparseCfg.model->describe();
    const benchutil::SweepOutcome hbaOut =
        benchutil::runThreadsSweep(fm, hba, cfg, legacy, sweep, json);
    const benchutil::SweepOutcome eaOut =
        benchutil::runThreadsSweep(fm, ea, cfg, legacy, sweep, json);
    const benchutil::SweepOutcome hbaSparse =
        benchutil::runThreadsSweep(fm, hba, sparseCfg, sparse, sweep, json);
    const benchutil::SweepOutcome eaSparse =
        benchutil::runThreadsSweep(fm, ea, sparseCfg, sparse, sweep, json);
    json.endArray();
    const bool circuitDeterministic = hbaOut.deterministic && eaOut.deterministic &&
                                      hbaSparse.deterministic && eaSparse.deterministic;
    allDeterministic = allDeterministic && circuitDeterministic;

    // Spot-check successful HBA mappings functionally: re-derive each
    // sample's defect map from its engine stream (splitSampleStreams(seed,
    // n)[s]) and simulate the mapped crossbar on random inputs. Runs for
    // the legacy AND the sparse stream.
    std::size_t validated = 0, validationChecks = 0;
    const TruthTable ref = TruthTable::fromCover(circuit->cover);
    for (const auto* run : {&hbaOut, &hbaSparse}) {
      const DefectExperimentResult& reference = run->reference;
      const DefectExperimentConfig& runCfg = run == &hbaOut ? cfg : sparseCfg;
      const std::vector<Rng> streams = splitSampleStreams(runCfg.seed, runCfg.samples);
      std::size_t budget = 10;
      for (std::size_t s = 0; s < runCfg.samples && budget > 0; ++s) {
        const MappingResult& mapping = reference.mappings[s];
        if (!mapping.success) continue;
        --budget;
        ++validationChecks;
        Rng sampleRng = streams[s];
        const DefectMap defects = runCfg.model->sample(fm.rows(), fm.cols(), sampleRng);
        bool good = true;
        Rng inputRng(900 + s);
        for (int check = 0; check < 16 && good; ++check) {
          DynBits in(circuit->cover.nin());
          std::size_t minterm = 0;
          for (std::size_t v = 0; v < circuit->cover.nin(); ++v) {
            const bool bit = inputRng.bernoulli(0.5);
            in.set(v, bit);
            minterm |= static_cast<std::size_t>(bit) << v;
          }
          const DynBits out = simulateMultiLevel(layout, mapping.rowAssignment, defects, in);
          for (std::size_t o = 0; o < circuit->cover.nout(); ++o)
            if (out.test(o) != ref.get(o, minterm)) good = false;
        }
        if (good) ++validated;
      }
    }
    json.field("sim_validated", validated);
    json.field("sim_checks", validationChecks);
    json.endObject();

    table.addRow({w.label, std::to_string(fm.dims().area()),
                  TextTable::percent(hbaSparse.reference.successRate()),
                  TextTable::percent(eaSparse.reference.successRate()),
                  TextTable::num(hbaOut.wallAt1, 3), TextTable::num(hbaSparse.wallAt1, 3),
                  hbaSparse.wallAt1 > 0
                      ? TextTable::num(hbaOut.wallAt1 / hbaSparse.wallAt1, 2) + "x"
                      : "-",
                  circuitDeterministic ? "yes" : "NO",
                  std::to_string(validated) + "/" + std::to_string(validationChecks)});
  }
  json.endArray();
  json.endObject();
  jsonFile << "\n";

  std::cout << table << "\n";
  std::cout << "every simulated spot-check of a successful mapping must pass (last column\n"
               "n/n): the mapped multi-level crossbar computes the original function.\n"
               "det = success counts and row assignments identical across the threads\n"
               "sweep (1/2/4/hw) for a fixed seed, for the legacy AND sparse samplers.\n"
               "sparse gain = legacy 1T wall / sparse 1T wall on this run (the tracked\n"
               "hot-path speedup is vs the committed baseline JSON).\n"
               "JSON written to " << jsonPath << "\n";
  return allDeterministic ? 0 : 1;
}

}  // namespace

MCX_BENCH_SUITE("multilevel",
                "A5: multi-level defect mapping + engine determinism sweep (BENCH_defect_mc)",
                runMultilevelDefect);
