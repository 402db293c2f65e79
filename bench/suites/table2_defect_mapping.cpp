// Table II reproduction: success rate and runtime of the proposed hybrid
// algorithm (HBA) vs the exact algorithm (EA) on optimum-size crossbars
// with 10% stuck-at-open defects, 200 Monte Carlo samples per circuit.
//
// The Monte Carlo engine runs a threads sweep (1/2/4/hw) per circuit and
// mapper: identical success counts at every thread count are asserted, and
// per-sweep wall time is emitted as machine-readable JSON
// (MCX_BENCH_JSON, default BENCH_table2_defect_mc.json).
//
// Override the sample count with MCX_SAMPLES.
#include <fstream>
#include <iostream>
#include <vector>

#include "api/driver.hpp"
#include "benchdata/registry.hpp"
#include "circuit/cache.hpp"
#include "circuit/registry.hpp"
#include "defect_sweep.hpp"
#include "map/exact_mapper.hpp"
#include "map/hybrid_mapper.hpp"
#include "util/text_table.hpp"

namespace {

int runTable2(const std::vector<std::string>& args) {
  using namespace mcx;

  bench::CommonOptions common;
  cli::ArgParser parser("mcx_bench table2",
                        "Table II: HBA vs EA success/runtime at 10% stuck-open");
  common.addSamplesTo(parser);
  common.addJsonTo(parser);
  if (const auto code = bench::parseSuiteArgs(parser, args)) return *code;

  const std::size_t samples = common.samplesOr(200);
  const std::string jsonPath = common.jsonOr("BENCH_table2_defect_mc.json");
  std::cout << "Table II: HBA vs EA on optimum-size crossbars, 10% stuck-at-open, "
            << samples << " samples per circuit\n\n";

  TextTable table({"name", "I", "O", "P", "area", "IR", "HBA Psucc", "(paper)", "HBA time s",
                   "EA Psucc", "(paper)", "EA time s", "speedup"});

  const HybridMapper hba;
  const ExactMapper ea;
  const std::vector<std::size_t> sweep = benchutil::threadsSweep();

  std::ofstream jsonFile(jsonPath);
  JsonWriter json(jsonFile);
  json.beginObject();
  json.field("bench", "table2_defect_mapping");
  json.field("samples", samples);
  json.field("stuck_open_rate", 0.10);
  json.field("hardware_concurrency", resolveThreadCount(0));
  json.key("circuits").beginArray();

  bool allDeterministic = true;
  double worstGap = 0;
  for (const auto& info : paperBenchmarks()) {
    if (!info.inTable2) continue;
    // Registry circuit through the pipeline. Generated rows are minimized
    // with espresso; stand-ins are built at the paper's post-minimization
    // P already. The committed BENCH_table2 counts anchor these covers.
    CircuitSpec spec = makeCircuitSpec(info.name);
    if (info.source == BenchmarkSource::Generated) spec.synth = CircuitSpec::Synth::Espresso;
    const std::shared_ptr<const Circuit> circuit = compileCircuit(spec);
    const Cover& cover = circuit->cover;
    const FunctionMatrix& fm = circuit->fm;

    DefectExperimentConfig cfg;
    cfg.samples = samples;
    cfg.model = std::make_shared<IidBernoulli>(0.10);
    cfg.seed = 0x7ab1e2;

    json.beginObject();
    json.field("name", info.name);
    json.field("area", fm.dims().area());

    json.key("mappers").beginArray();
    const benchutil::SweepOutcome hbaOut =
        benchutil::runThreadsSweep(fm, hba, cfg, kLegacyScenario, sweep, json);
    const benchutil::SweepOutcome eaOut =
        benchutil::runThreadsSweep(fm, ea, cfg, kLegacyScenario, sweep, json);
    json.endArray();
    json.endObject();
    allDeterministic = allDeterministic && hbaOut.deterministic && eaOut.deterministic;

    const DefectExperimentResult& hbaR = hbaOut.reference;
    const DefectExperimentResult& eaR = eaOut.reference;
    const double speedup = hbaR.meanSeconds() > 0 ? eaR.meanSeconds() / hbaR.meanSeconds() : 0;
    worstGap = std::max(worstGap, eaR.successRate() - hbaR.successRate());

    table.addRow({info.name, std::to_string(cover.nin()),
                  std::to_string(cover.nout()), std::to_string(cover.size()),
                  std::to_string(fm.dims().area()),
                  TextTable::percent(fm.inclusionRatio()),
                  TextTable::percent(hbaR.successRate()),
                  info.paperPsuccHba ? TextTable::percent(*info.paperPsuccHba) : "-",
                  TextTable::num(hbaR.meanSeconds(), 6),
                  TextTable::percent(eaR.successRate()),
                  info.paperPsuccEa ? TextTable::percent(*info.paperPsuccEa) : "-",
                  TextTable::num(eaR.meanSeconds(), 6), TextTable::num(speedup, 1) + "x"});
  }
  json.endArray();
  json.field("all_deterministic", allDeterministic);
  json.endObject();
  jsonFile << "\n";

  std::cout << table << "\n";
  std::cout << "expected shape (paper): HBA within ~15% of EA's success rate while being\n"
               "faster on the large circuits (apex4, alu4); EA now runs the Hopcroft-Karp\n"
               "fast path, so the gap is narrower than the paper's Munkres-based EA.\n";
  std::cout << "largest EA-HBA success gap observed: " << TextTable::percent(worstGap, 1)
            << "\n";
  std::cout << "success counts identical across threads sweep: "
            << (allDeterministic ? "yes" : "NO") << "; JSON written to " << jsonPath << "\n";
  return allDeterministic ? 0 : 1;
}

}  // namespace

MCX_BENCH_SUITE("table2",
                "Table II: HBA vs EA on optimum-size crossbars (BENCH_table2_defect_mc)",
                runTable2);
