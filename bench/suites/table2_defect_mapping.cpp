// Table II reproduction: success rate and runtime of the proposed hybrid
// algorithm (HBA) vs the exact algorithm (EA) on optimum-size crossbars
// with 10% stuck-at-open defects, 200 Monte Carlo samples per circuit.
//
// One BENCH grid: every cell runs the threads sweep (1/2/4/hw), identical
// success counts and row assignments are asserted, and the cells are
// written as BENCH_table2_defect_mc.json (--json).
#include <algorithm>
#include <iostream>
#include <vector>

#include "api/driver.hpp"
#include "benchdata/registry.hpp"
#include "grid.hpp"
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

  // Registry circuits through the pipeline. Generated rows are minimized
  // with espresso; stand-ins are built at the paper's post-minimization P
  // already. The committed BENCH_table2 counts anchor these covers.
  std::vector<const BenchmarkInfo*> rows;
  bench::Grid grid;
  grid.bench = "table2_defect_mapping";
  for (const BenchmarkInfo& info : paperBenchmarks()) {
    if (!info.inTable2) continue;
    rows.push_back(&info);
    grid.circuits.push_back(info.source == BenchmarkSource::Generated
                                ? R"({"circuit": ")" + info.name + R"(", "synth": "espresso"})"
                                : info.name);
  }
  grid.scenarios = {bench::kLegacyScenarioDecl};
  grid.rates = {0.10};
  grid.mappers = {"hba", "ea"};
  grid.samples = common.samplesOr(200);
  grid.seed = 0x7ab1e2;
  grid.json = common.jsonOr("BENCH_table2_defect_mc.json");
  const std::vector<bench::Cell> cells = bench::runGrid(grid);
  bench::writeGridJson(grid, cells);

  std::cout << "Table II: HBA vs EA on optimum-size crossbars, 10% stuck-at-open, "
            << grid.samples << " samples per circuit\n\n";
  TextTable table({"name", "I", "O", "P", "area", "IR", "HBA Psucc", "(paper)", "HBA time s",
                   "EA Psucc", "(paper)", "EA time s", "speedup"});
  double worstGap = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BenchmarkInfo& info = *rows[i];
    const Circuit& circuit = *cells[2 * i].circuit;
    const ExperimentResult& hba = cells[2 * i].result;
    const ExperimentResult& ea = cells[2 * i + 1].result;
    const double speedup = hba.meanSeconds() > 0 ? ea.meanSeconds() / hba.meanSeconds() : 0;
    worstGap = std::max(worstGap, ea.successRate() - hba.successRate());
    table.addRow({info.name, std::to_string(circuit.cover.nin()),
                  std::to_string(circuit.cover.nout()), std::to_string(circuit.cover.size()),
                  std::to_string(hba.area()), TextTable::percent(circuit.fm.inclusionRatio()),
                  TextTable::percent(hba.successRate()),
                  info.paperPsuccHba ? TextTable::percent(*info.paperPsuccHba) : "-",
                  TextTable::num(hba.meanSeconds(), 6), TextTable::percent(ea.successRate()),
                  info.paperPsuccEa ? TextTable::percent(*info.paperPsuccEa) : "-",
                  TextTable::num(ea.meanSeconds(), 6), TextTable::num(speedup, 1) + "x"});
  }
  const bool deterministic = bench::allDeterministic(cells);
  std::cout << table << "\n";
  std::cout << "expected shape (paper): HBA within ~15% of EA's success rate while being\n"
               "faster on the large circuits (apex4, alu4); EA now runs the Hopcroft-Karp\n"
               "fast path, so the gap is narrower than the paper's Munkres-based EA.\n";
  std::cout << "largest EA-HBA success gap observed: " << TextTable::percent(worstGap, 1)
            << "\n";
  std::cout << "success counts identical across threads sweep: "
            << (deterministic ? "yes" : "NO") << "; JSON written to " << *grid.json << "\n";
  return deterministic ? 0 : 1;
}

}  // namespace

MCX_BENCH_SUITE("table2",
                "Table II: HBA vs EA on optimum-size crossbars (BENCH_table2_defect_mc)",
                runTable2);
