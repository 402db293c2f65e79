// Ablation A1 (the paper's Section VI future work): yield vs redundancy.
//
// Sweeps spare rows / spare column pairs on defective crossbars, with and
// without stuck-at-closed defects. On an optimum-size crossbar any
// stuck-at-closed defect is fatal (it poisons a full row and column); spare
// lines plus column-pair reassignment recover the yield, quantifying the
// area-redundancy tradeoff the paper calls for. Each cell is one grid cell
// on the spares axis, run by the colperm mapper, which places the function
// on the least-defective pairs; the success rate carries its 95% Wilson
// half-width.
#include <iostream>
#include <vector>

#include "api/driver.hpp"
#include "grid.hpp"
#include "mc/stats.hpp"
#include "util/text_table.hpp"

namespace {

int runRedundancy(const std::vector<std::string>& args) {
  using namespace mcx;

  bench::CommonOptions common;
  cli::ArgParser parser("mcx_bench ablation-redundancy",
                        "Ablation A1: yield vs spare rows / column pairs");
  common.addSamplesTo(parser);
  if (const auto code = bench::parseSuiteArgs(parser, args)) return *code;

  const char* labels[] = {"10% stuck-open only", "10% open + 0.2% stuck-closed",
                          "10% open + 1% stuck-closed"};
  bench::Grid grid;
  grid.circuits = {"squar5"};
  grid.scenarios = {R"({"model": "iid", "open": 0.10, "closed": 0})",
                    R"({"model": "iid", "open": 0.10, "closed": 0.002})",
                    R"({"model": "iid", "open": 0.10, "closed": 0.01})"};
  grid.spares.clear();
  for (const std::size_t spare : {0u, 1u, 2u, 4u, 8u, 12u})
    grid.spares.push_back({spare, (spare + 1) / 2, (spare + 2) / 3});
  grid.mappers = {"colperm"};
  grid.samples = common.samplesOr(100);
  grid.seed = 1234;
  const std::vector<bench::Cell> cells = bench::runGrid(grid);

  const FunctionMatrix& fm = cells.front().circuit->fm;
  std::cout << "Ablation: yield vs redundant lines on " << cells.front().circuit->label << " ("
            << fm.rows() << "x" << fm.cols() << " optimum, " << grid.samples
            << " samples per cell)\n\n";
  auto cell = cells.begin();
  for (const char* label : labels) {
    TextTable table({"spares (rows/in-pairs/out-pairs)", "area overhead", "success rate"});
    for (const RedundantCrossbarSpec& spares : grid.spares) {
      const DefectExperimentResult& r = (cell++)->result.outcome;
      const double overhead =
          100.0 * (double(redundantDims(fm, spares).area()) / double(fm.dims().area()) - 1.0);
      table.addRow({std::to_string(spares.spareRows) + "/" +
                        std::to_string(spares.spareInputPairs) + "/" +
                        std::to_string(spares.spareOutputPairs),
                    TextTable::num(overhead, 0) + "%",
                    TextTable::percent(r.successRate()) + " +/- " +
                        TextTable::percent(wilsonHalfWidth(r.successes, r.completed), 1)});
    }
    std::cout << label << ":\n" << table << "\n";
  }
  std::cout << "expected shape: with stuck-closed defects the zero-spare yield collapses\n"
               "(Section IV-A: untolerable without redundancy); modest spare budgets\n"
               "recover it at bounded area overhead.\n";
  return 0;
}

}  // namespace

MCX_BENCH_SUITE("ablation-redundancy", "A1: yield vs spare rows and column pairs",
                runRedundancy);
