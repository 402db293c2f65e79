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
// grid cell on the spares axis, run by the colperm mapper on --threads
// workers; per-sample RNG streams make the results independent of the
// thread count.
#include <iostream>
#include <string>
#include <vector>

#include "api/driver.hpp"
#include "grid.hpp"
#include "mc/executor.hpp"
#include "mc/stats.hpp"
#include "scenario/spec.hpp"
#include "util/text_table.hpp"

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

  bench::Grid grid;
  grid.circuits = {circuit};
  grid.scenarios = {scenarioArg.empty() ? R"({"model": "iid", "open": )" +
                                              specText(rate * 10.0 / 11.0) +
                                              R"(, "closed": )" + specText(rate / 11.0) + "}"
                                        : scenarioArg};
  grid.rates = {rate};
  grid.spares.clear();
  for (const std::size_t spare : {0u, 1u, 2u, 4u, 8u})
    grid.spares.push_back({spare, spare / 2, spare / 2});
  grid.mappers = {"colperm"};
  grid.samples = common.samplesOr(100);
  grid.seed = common.seedOr(97);
  grid.threads = common.threadsOr(0);
  const std::vector<bench::Cell> cells = bench::runGrid(grid);

  const FunctionMatrix& fm = cells.front().circuit->fm;
  std::cout << "circuit: " << cells.front().circuit->label << "  (" << fm.rows() << "x"
            << fm.cols() << " optimum crossbar, " << grid.samples
            << " Monte Carlo samples per cell)\n";
  std::cout << "scenario: " << cells.front().result.scenario << "  (seed " << grid.seed << ", "
            << resolveThreadCount(grid.threads) << " threads)\n\n";

  TextTable table({"spare rows", "spare in-pairs", "spare out-pairs", "success rate"});
  for (const bench::Cell& cell : cells) {
    const DefectExperimentResult& r = cell.result.outcome;
    table.addRow({std::to_string(cell.spares.spareRows),
                  std::to_string(cell.spares.spareInputPairs),
                  std::to_string(cell.spares.spareOutputPairs),
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
