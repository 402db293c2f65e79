// Ablation A3: what each ingredient of the hybrid algorithm buys.
//
// Compares, at several defect rates: greedy first-fit over all rows, HBA
// without backtracking, full HBA (Algorithm 1), HBA + input-column
// permutation (our extension), and the exact algorithm. Every variant is a
// mapper-registry name on the grid's mapper axis — adding a variant to this
// table is one string.
#include <iostream>
#include <vector>

#include "api/driver.hpp"
#include "grid.hpp"
#include "util/text_table.hpp"

namespace {

int runMappers(const std::vector<std::string>& args) {
  using namespace mcx;

  bench::CommonOptions common;
  cli::ArgParser parser("mcx_bench ablation-mappers",
                        "Ablation A3: mapper variants (greedy / HBA / colperm / EA)");
  common.addSamplesTo(parser);
  if (const auto code = bench::parseSuiteArgs(parser, args)) return *code;

  bench::Grid grid;
  grid.circuits = {"sao2"};
  grid.scenarios = {bench::kLegacyScenarioDecl};
  grid.rates = {0.05, 0.10, 0.15, 0.20};
  // The paper's Munkres-based EA is the "EA" column; fast-ea shows the
  // Hopcroft-Karp fast path at identical success rates.
  grid.mappers = {"greedy", "hba-nobt", "hba", "colperm", "ea-munkres", "fast-ea"};
  grid.samples = common.samplesOr(100);
  grid.seed = 0xc0ffee;
  const std::vector<bench::Cell> cells = bench::runGrid(grid);

  TextTable table({"defect rate", "Greedy", "HBA-nobt", "HBA", "ColPerm+HBA", "EA", "EA-fast"});
  auto cell = cells.begin();
  for (const double rate : grid.rates) {
    std::vector<std::string> row{TextTable::percent(rate)};
    for (std::size_t m = 0; m < grid.mappers.size(); ++m, ++cell)
      row.push_back(TextTable::percent(cell->result.successRate()) + " @" +
                    TextTable::num(cell->result.meanSeconds() * 1e3, 2) + "ms");
    table.addRow(std::move(row));
  }
  std::cout << "Ablation: mapper variants on sao2 (area " << cells.front().result.area() << ", "
            << grid.samples << " samples per cell)\n\n";
  std::cout << table << "\n";
  std::cout << "expected shape: Greedy <= HBA-nobt <= HBA <= ColPerm+HBA and HBA <= EA in\n"
               "success rate; EA-fast matches EA's success exactly (both are exact) at a\n"
               "fraction of the Munkres runtime; the column-permutation extension can\n"
               "exceed both (they only permute rows).\n";
  return 0;
}

}  // namespace

MCX_BENCH_SUITE("ablation-mappers", "A3: mapper-variant ablation through the registry",
                runMappers);
