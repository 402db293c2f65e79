// Yield explorer: how much redundancy buys how much mapping success.
//
// The paper leaves redundant-line yield analysis as future work (Section
// VI); this suite walks a benchmark across spare-line budgets under a
// configurable defect scenario — by default a mixed i.i.d. world including
// stuck-at-closed defects, which are untolerable on an optimum-size
// crossbar but absorbable with spare rows and column pairs.
//
// --scenario takes a registry preset name (see --list) or an inline JSON
// spec; --rate sets the preset's overall defect budget. Each budget is one
// engine run (runDefectExperiment with DefectExperimentConfig::spares) of
// the colperm mapper on --threads workers; per-sample RNG streams make the
// results independent of the thread count.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "api/driver.hpp"
#include "circuit/cache.hpp"
#include "map/registry.hpp"
#include "mc/defect_experiment.hpp"
#include "mc/executor.hpp"
#include "mc/stats.hpp"
#include "scenario/registry.hpp"
#include "util/text_table.hpp"
#include "xbar/function_matrix.hpp"

namespace {

int runYieldExplorer(const std::vector<std::string>& args) {
  using namespace mcx;

  bench::CommonOptions common;
  std::string circuit = "misex1";
  std::string scenarioArg;
  double rate = 0.055;  // the historical default budget (5% open + 0.5% closed)

  cli::ArgParser parser("mcx_bench yield",
                        "yield vs spare-line budget under a configurable defect scenario");
  parser.add("--circuit", &circuit, "NAME|SPEC",
             "circuit preset name or JSON circuit spec (default misex1)");
  common.addSamplesTo(parser);
  common.addSeedTo(parser);
  common.addThreadsTo(parser);
  parser.add("--scenario", &scenarioArg, "NAME|SPEC",
             "scenario preset name or inline JSON model spec");
  parser.add("--rate", &rate, "R", "preset's overall defect budget (default 0.055)");
  parser.addAction("--list", "list the scenario presets", bench::listScenarios);
  if (const auto code = bench::parseSuiteArgs(parser, args)) return *code;

  const std::size_t samples = common.samplesOr(100);
  const std::uint64_t seed = common.seedOr(97);
  const std::size_t threads = common.threadsOr(0);

  std::shared_ptr<const DefectModel> model;
  std::shared_ptr<const Circuit> compiled;
  try {
    model = scenarioArg.empty()
                ? std::make_shared<IidBernoulli>(rate * 10.0 / 11.0, rate / 11.0)
                : makeScenario(scenarioArg, rate);
    compiled = compileCircuit(circuit);
  } catch (const std::exception& e) {  // unknown scenario/circuit, bad rate
    std::cerr << "mcx_bench yield: " << e.what() << "\n";
    return 2;
  }
  const FunctionMatrix& fm = compiled->fm;
  std::cout << "circuit: " << compiled->label << "  (" << fm.rows() << "x" << fm.cols()
            << " optimum crossbar, " << samples << " Monte Carlo samples per cell)\n";
  std::cout << "scenario: " << model->describe() << "  (seed " << seed << ", "
            << resolveThreadCount(threads) << " threads)\n\n";

  TextTable table({"spare rows", "spare in-pairs", "spare out-pairs", "success rate"});
  const std::shared_ptr<const IMapper> mapper = makeMapper("colperm");
  for (const std::size_t spare : {0u, 1u, 2u, 4u, 8u}) {
    DefectExperimentConfig cfg;
    cfg.samples = samples;
    cfg.spares.spareRows = spare;
    cfg.spares.spareInputPairs = spare / 2;
    cfg.spares.spareOutputPairs = spare / 2;
    cfg.model = model;
    cfg.seed = seed + spare;
    cfg.threads = threads;
    const DefectExperimentResult r = runDefectExperiment(fm, *mapper, cfg);
    table.addRow({std::to_string(spare), std::to_string(cfg.spares.spareInputPairs),
                  std::to_string(cfg.spares.spareOutputPairs),
                  TextTable::percent(r.successRate()) + " +/- " +
                      TextTable::percent(wilsonHalfWidth(r.successes, r.completed), 1)});
  }
  std::cout << table;
  std::cout << "\nWith zero spares any stuck-closed defect is fatal (Section IV-A of the\n"
               "paper); spare lines recover most of the yield.\n";
  return 0;
}

}  // namespace

MCX_BENCH_SUITE("yield", "redundancy explorer: yield vs spare lines under any scenario",
                runYieldExplorer);
