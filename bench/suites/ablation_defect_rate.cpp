// Ablation A2: mapping success rate vs stuck-at-open defect rate.
//
// The paper fixes 10%; this sweep shows where each circuit's yield cliff
// sits on an optimum-size crossbar, for both HBA and EA. One grid over the
// paper's legacy i.i.d. draw, so success counts stay bit-identical to the
// pre-facade bench.
#include <iostream>
#include <vector>

#include "api/driver.hpp"
#include "grid.hpp"
#include "scenario/registry.hpp"
#include "util/text_table.hpp"

namespace {

int runDefectRate(const std::vector<std::string>& args) {
  using namespace mcx;

  bench::CommonOptions common;
  cli::ArgParser parser("mcx_bench ablation-defect-rate",
                        "Ablation A2: success rate vs stuck-at-open defect rate");
  common.addSamplesTo(parser);
  if (const auto code = bench::parseSuiteArgs(parser, args)) return *code;

  bench::Grid grid;
  grid.circuits = {"rd53", "misex1", "sao2", "rd73", "clip"};
  grid.scenarios = {bench::kLegacyScenarioDecl};
  grid.rates = standardRateGrid();
  grid.mappers = {"hba", "ea"};
  grid.samples = common.samplesOr(100);
  grid.seed = 0xab1a;
  const std::vector<bench::Cell> cells = bench::runGrid(grid);

  std::cout << "Ablation: success rate vs defect rate (optimum-size crossbars, "
            << grid.samples << " samples per cell)\n\n";
  // Cells come circuit by circuit, rate by rate, HBA then EA.
  for (auto cell = cells.begin(); cell != cells.end();) {
    TextTable table({"defect rate", "HBA Psucc", "EA Psucc", "HBA backtracks/sample"});
    const ExperimentResult& first = cell->result;
    for (const double rate : grid.rates) {
      const ExperimentResult& hba = (cell++)->result;
      const ExperimentResult& ea = (cell++)->result;
      table.addRow({TextTable::percent(rate), TextTable::percent(hba.successRate()),
                    TextTable::percent(ea.successRate()),
                    TextTable::num(double(hba.outcome.totalBacktracks) / double(grid.samples),
                                   2)});
    }
    std::cout << first.circuit << " (area " << first.area() << "):\n" << table << "\n";
  }
  std::cout << "expected shape: success degrades monotonically with rate; EA >= HBA\n"
               "everywhere; backtracking activity peaks around the cliff.\n";
  return 0;
}

}  // namespace

MCX_BENCH_SUITE("ablation-defect-rate", "A2: success rate vs defect rate (yield cliffs)",
                runDefectRate);
