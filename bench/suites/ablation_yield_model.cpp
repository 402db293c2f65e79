// Ablation A8: analytic yield model vs Monte Carlo ground truth.
//
// Quantifies where the closed-form estimate (mc/yield_model.hpp) is usable
// instead of a 200-sample Monte Carlo run, and uses it to answer the
// paper's future-work question "how much redundancy for a target yield?"
// instantly per circuit.
#include <cmath>
#include <iostream>
#include <memory>
#include <vector>

#include "api/driver.hpp"
#include "api/experiment.hpp"
#include "circuit/cache.hpp"
#include "mc/yield_model.hpp"
#include "util/text_table.hpp"
#include "xbar/function_matrix.hpp"

namespace {

int runYieldModel(const std::vector<std::string>& args) {
  using namespace mcx;

  bench::CommonOptions common;
  cli::ArgParser parser("mcx_bench ablation-yield-model",
                        "Ablation A8: analytic yield model vs Monte Carlo");
  common.addSamplesTo(parser);
  if (const auto code = bench::parseSuiteArgs(parser, args)) return *code;

  const std::size_t samples = common.samplesOr(200);
  std::cout << "Analytic yield model vs Monte Carlo (" << samples
            << " samples), optimum-size crossbars\n\n";

  TextTable table({"circuit", "rate", "model", "Monte Carlo", "abs err"});
  for (const char* name : {"rd53", "misex1", "sao2", "clip"}) {
    const std::shared_ptr<const Circuit> circuit = compileCircuit(name);
    const FunctionMatrix& fm = circuit->fm;
    for (const double q : {0.05, 0.10, 0.20}) {
      const double model = estimateYield(fm, q).successProbability;
      const double mc = ExperimentBuilder()
                            .circuit(name)
                            .mapper("hba")
                            .legacyRates(q)
                            .samples(samples)
                            .run()
                            .successRate();
      table.addRow({name, TextTable::percent(q), TextTable::percent(model, 1),
                    TextTable::percent(mc, 1), TextTable::num(std::abs(model - mc), 3)});
    }
  }
  std::cout << table << "\n";

  std::cout << "spare rows needed for 99% estimated yield at 10% defects:\n";
  TextTable spares({"circuit", "optimum rows", "spares for 99%", "row overhead"});
  for (const char* name : {"rd53", "misex1", "sao2", "rd73", "clip", "alu4"}) {
    const std::shared_ptr<const Circuit> circuit = compileCircuit(name);
    const FunctionMatrix& fm = circuit->fm;
    const std::size_t s = sparesForTargetYield(fm, 0.10, 0.99, 128);
    spares.addRow({name, std::to_string(fm.rows()), std::to_string(s),
                   TextTable::percent(double(s) / double(fm.rows()), 1)});
  }
  std::cout << spares << "\n";
  std::cout << "expected shape: the sequential-greedy approximation brackets the truth\n"
               "from both sides — optimistic when dense-row tails compete for the same\n"
               "healthy rows (rd53 at 20%), pessimistic on uniform-row circuits where\n"
               "real matchings rearrange globally (misex1, augmenting paths beat greedy);\n"
               "errors stay within ~0.2 and shrink at the 0%/100% extremes, good enough\n"
               "for the spare-row sizing table below.\n";
  return 0;
}

}  // namespace

MCX_BENCH_SUITE("ablation-yield-model", "A8: analytic yield estimate vs Monte Carlo",
                runYieldModel);
