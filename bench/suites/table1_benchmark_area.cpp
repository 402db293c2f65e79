// Table I reproduction: two-level and multi-level area cost of benchmark
// circuits, for the original function and its negation.
//
// The paper's numbers come from MCNC PLAs + ABC; ours come from the
// generated / stand-in circuits (see DESIGN.md substitution policy) and our
// own factoring NAND mapper, so absolute values differ — the shape to check
// is: multi-level is drastically WORSE on multi-output benchmarks and WINS
// on the structured single-output ones (t481, cordic).
#include <iostream>
#include <optional>
#include <vector>

#include "api/driver.hpp"
#include "benchdata/registry.hpp"
#include "circuit/cache.hpp"
#include "circuit/registry.hpp"
#include "logic/espresso.hpp"
#include "netlist/nand_mapper.hpp"
#include "util/text_table.hpp"
#include "xbar/area_model.hpp"

namespace {

struct PaperRow {
  const char* name;
  std::size_t two, multi, twoNeg, multiNeg;
};

// Table I as printed.
constexpr PaperRow kPaper[] = {
    {"rd53", 544, 3000, 560, 2000},       {"con1", 198, 480, 198, 527},
    {"misex1", 570, 4836, 1590, 4161},    {"bw", 3300, 52875, 3564, 53110},
    {"sqrt8", 1008, 2745, 792, 3300},     {"rd84", 6216, 48124, 7128, 20276},
    {"b12", 2496, 7800, 2064, 2691},      {"t481", 16388, 5760, 12274, 8034},
    {"cordic", 45800, 9594, 59650, 10668}};

std::optional<PaperRow> paperRow(const std::string& name) {
  for (const PaperRow& r : kPaper)
    if (name == r.name) return r;
  return std::nullopt;
}

int runTable1(const std::vector<std::string>& args) {
  using namespace mcx;

  cli::ArgParser parser("mcx_bench table1",
                        "Table I: two-level vs multi-level area on benchmark circuits");
  if (const auto code = bench::parseSuiteArgs(parser, args)) return *code;

  std::cout << "Table I: two-level and multi-level area cost, original circuit and its "
               "negation\n(ours vs paper; stand-in circuits — shapes, not absolute values, "
               "are comparable)\n\n";

  TextTable table({"bench", "2L ours", "2L paper", "ML ours", "ML paper", "2L-neg ours",
                   "2L-neg paper", "ML-neg ours", "ML-neg paper", "ML wins (ours/paper)"});

  for (const auto& info : paperBenchmarks()) {
    if (!info.inTable1) continue;
    const auto paper = paperRow(info.name);

    // Both realizations of the registry circuit through the pipeline:
    // espresso on generated rows (stand-ins are built at the paper's
    // post-minimization P already), factoring "best" = mapToNandBest. The
    // memo cache shares the compiles with any suite running the same specs.
    CircuitSpec spec = makeCircuitSpec(info.name);
    if (info.source == BenchmarkSource::Generated) spec.synth = CircuitSpec::Synth::Espresso;
    const std::shared_ptr<const Circuit> twoLevel = compileCircuit(spec);
    spec.realize = CircuitSpec::Realize::MultiLevel;
    spec.factoring = CircuitSpec::Factoring::Best;
    const std::shared_ptr<const Circuit> multiLevel = compileCircuit(spec);

    const Cover& on = twoLevel->cover;
    const std::size_t two = twoLevel->dims().area();
    const std::size_t multi = multiLevel->dims().area();

    // Negation: complement each output; large stand-ins use the light
    // complement (no espresso polish) to keep the bench fast.
    std::size_t twoNeg = 0, multiNeg = 0;
    std::string twoNegStr = "-", multiNegStr = "-";
    if (on.nin() <= 16) {
      Cover neg = complementCover(on);
      if (on.nin() <= 10) neg = espressoMinimize(neg);
      if (!neg.empty()) {
        twoNeg = twoLevelDims(neg).area();
        bool constant = false;
        for (std::size_t o = 0; o < neg.nout(); ++o)
          if (neg.projection(o).empty()) constant = true;
        if (!constant) multiNeg = multiLevelDims(mapToNandBest(neg)).area();
        twoNegStr = std::to_string(twoNeg);
        multiNegStr = multiNeg > 0 ? std::to_string(multiNeg) : "-";
      }
    }

    const bool oursWin = multi < two;
    const bool paperWin = paper && paper->multi < paper->two;
    table.addRow({info.name, std::to_string(two),
                  paper ? std::to_string(paper->two) : "-", std::to_string(multi),
                  paper ? std::to_string(paper->multi) : "-", twoNegStr,
                  paper ? std::to_string(paper->twoNeg) : "-", multiNegStr,
                  paper ? std::to_string(paper->multiNeg) : "-",
                  std::string(oursWin ? "yes" : "no") + "/" + (paperWin ? "yes" : "no")});
  }
  std::cout << table << "\n";
  std::cout << "expected shape: multi-level loses badly on the multi-output circuits\n"
               "(rd53/misex1/bw/...) and wins on the structured single-output ones\n"
               "(t481, cordic) — compare the final column's ours/paper agreement.\n";
  return 0;
}

}  // namespace

MCX_BENCH_SUITE("table1", "Table I: two-level and multi-level area, original and negation",
                runTable1);
