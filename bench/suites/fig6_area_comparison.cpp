// Figure 6 reproduction: two-level vs multi-level area on random functions.
//
// For each input size (the paper plots 8, 9, 10 and 15; we run the full
// 8..15 range) 200 random single-output SOPs are drawn, minimized, factored
// and mapped to NAND gates; the success rate is the share of samples whose
// multi-level crossbar is smaller. The paper's trends: success rate FALLS
// with input size and RISES with product count.
//
// The scenario extension the paper's figure lacks: each sample's two-level
// and multi-level implementations are also mapped against defect maps from
// a scenario (--scenario preset name or JSON spec, default paper-iid at
// 10%), so the table shows the area/yield tradeoff
// next to the area win rate.
#include <iostream>
#include <map>
#include <vector>

#include "api/driver.hpp"
#include "api/experiment.hpp"
#include "circuit/cache.hpp"
#include "circuit/registry.hpp"
#include "mc/area_experiment.hpp"
#include "scenario/registry.hpp"
#include "util/error.hpp"
#include "util/text_table.hpp"

namespace {

int runFig6(const std::vector<std::string>& args) {
  using namespace mcx;

  bench::CommonOptions common;
  std::string scenarioArg = "paper-iid";
  std::vector<std::string> referenceSpecs;
  double rate = 0.10;
  cli::ArgParser parser("mcx_bench fig6",
                        "Figure 6: two-level vs multi-level area on random functions");
  common.addSamplesTo(parser);
  parser.add("--scenario", &scenarioArg, "NAME|SPEC",
             "defect scenario for the yield columns (default paper-iid)");
  parser.add("--rate", &rate, "R", "scenario defect budget (default 0.10)");
  parser.addCallback("--circuit-spec", "NAME|SPEC",
                     "add a declared circuit as a reference row next to the random-"
                     "function trend (repeatable)",
                     [&referenceSpecs](const std::string& value) {
                       // The reference row compares both realizations itself;
                       // an explicit realize knob would be silently ignored.
                       if (makeCircuitSpec(value).realizeExplicit)
                         throw InvalidArgument(
                             "--circuit-spec: the reference row compares both "
                             "realizations; drop the \"realize\" member");
                       referenceSpecs.push_back(value);
                     });
  parser.addAction("--list", "list the scenario presets", bench::listScenarios);
  if (const auto code = bench::parseSuiteArgs(parser, args)) return *code;

  const std::size_t samples = common.samplesOr(200);
  const std::shared_ptr<const DefectModel> scenario = makeScenario(scenarioArg, rate);
  std::cout << "Figure 6: two-level vs multi-level area cost, random functions, "
            << samples << " samples per input size\n";
  std::cout << "paper reference success rates: I=8: 65%, I=9: 60%, I=10: 54%, I=15: 33%\n";
  std::cout << "yield columns: mapping success under " << scenario->describe() << "\n\n";

  TextTable summary({"input size", "success rate", "paper", "mean two-level",
                     "mean multi-level", "2L yield", "ML yield"});
  const std::map<std::size_t, const char*> paperRates{
      {8, "65%"}, {9, "60%"}, {10, "54%"}, {15, "33%"}};

  std::vector<AreaExperimentResult> results;
  for (std::size_t nin = 8; nin <= 15; ++nin) {
    AreaExperimentConfig cfg;
    cfg.nin = nin;
    cfg.samples = samples;
    cfg.seed = 600 + nin;
    // The paper does not publish its random-function generator parameters;
    // this literal density (calibrated once against the four published
    // success rates) reproduces both Fig. 6 trends: multi-level wins get
    // rarer as inputs grow and commoner as products grow.
    cfg.literalsPerProduct = 0.36 + 0.148 * static_cast<double>(nin);
    cfg.defectModel = scenario;
    cfg.defectDraws = 12;
    const AreaExperimentResult r = runAreaExperiment(cfg);
    results.push_back(r);

    double twoSum = 0, multiSum = 0, twoYield = 0, multiYield = 0;
    for (const AreaSample& s : r.samples) {
      twoSum += static_cast<double>(s.twoLevelArea);
      multiSum += static_cast<double>(s.multiLevelArea);
      twoYield += s.twoLevelYield;
      multiYield += s.multiLevelYield;
    }
    const auto it = paperRates.find(nin);
    const double n = static_cast<double>(r.samples.size());
    summary.addRow({std::to_string(nin), TextTable::percent(r.successRate()),
                    it != paperRates.end() ? it->second : "-",
                    TextTable::num(twoSum / n, 1), TextTable::num(multiSum / n, 1),
                    TextTable::percent(twoYield / n), TextTable::percent(multiYield / n)});
  }
  std::cout << summary << "\n";

  // The per-sample series of the four plotted sizes (sorted by product
  // count, the paper's x axis), showing the "flat two-level line vs
  // fluctuating multi-level" structure.
  for (const std::size_t nin : {std::size_t{8}, std::size_t{15}}) {
    const AreaExperimentResult& r = results[nin - 8];
    std::cout << "series for input size " << nin
              << " (sample: products, two-level, multi-level) — every 10th sample:\n";
    for (std::size_t i = 0; i < r.samples.size(); i += 10) {
      const AreaSample& s = r.samples[i];
      std::cout << "  " << i << ": P=" << s.products << "  two=" << s.twoLevelArea
                << "  multi=" << s.multiLevelArea << (s.multiLevelArea < s.twoLevelArea ? "  *" : "")
                << "\n";
    }
    std::cout << "\n";
  }

  // Declared reference circuits: where a real (non-random) function sits
  // relative to the random-function trend — both realizations compiled
  // through the memoized pipeline, both mapped under the same scenario.
  if (!referenceSpecs.empty()) {
    TextTable reference({"circuit", "I", "P", "two-level", "multi-level", "2L yield",
                         "ML yield", "ML wins"});
    for (const std::string& specText : referenceSpecs) {
      CircuitSpec spec = makeCircuitSpec(specText);
      spec.realize = CircuitSpec::Realize::TwoLevel;
      const std::shared_ptr<const Circuit> two = compileCircuit(spec);
      spec.realize = CircuitSpec::Realize::MultiLevel;
      // Default to the best factoring (what Fig. 6 measures) but respect an
      // explicitly declared strategy.
      if (!spec.factoringExplicit) spec.factoring = CircuitSpec::Factoring::Best;
      const std::shared_ptr<const Circuit> multi = compileCircuit(spec);
      auto yield = [&](const CircuitSpec& s) {
        return ExperimentBuilder()
            .circuit(s)
            .mapper("hba")
            .scenario(scenario)
            .samples(samples)
            .seed(640)
            .run()
            .successRate();
      };
      reference.addRow({two->label, std::to_string(two->cover.nin()),
                        std::to_string(two->cover.size()),
                        std::to_string(two->dims().area()),
                        std::to_string(multi->dims().area()),
                        TextTable::percent(yield(two->spec)),
                        TextTable::percent(yield(multi->spec)),
                        multi->dims().area() < two->dims().area() ? "yes" : "no"});
    }
    std::cout << "declared reference circuits under " << scenario->describe() << ":\n"
              << reference << "\n";
  }

  // Trend checks the paper claims.
  const double first = results.front().successRate();
  const double last = results.back().successRate();
  std::cout << "trend: success rate " << TextTable::percent(first) << " at I=8 vs "
            << TextTable::percent(last) << " at I=15 — "
            << (last < first ? "falls with input size (matches the paper)"
                             : "UNEXPECTED: does not fall")
            << "\n";
  return 0;
}

}  // namespace

MCX_BENCH_SUITE("fig6", "Fig. 6: two-level vs multi-level area + yield on random functions",
                runFig6);
