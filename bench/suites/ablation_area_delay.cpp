// Ablation A7: the area-delay tradeoff between two-level and multi-level
// designs (the paper discusses area only; the multi-level design's
// gate-at-a-time evaluation costs cycles — Fig. 4's CR loop).
#include <iostream>
#include <memory>
#include <vector>

#include "api/driver.hpp"
#include "circuit/cache.hpp"
#include "netlist/nand_mapper.hpp"
#include "util/text_table.hpp"
#include "xbar/timing_model.hpp"

namespace {

int runAreaDelay(const std::vector<std::string>& args) {
  using namespace mcx;

  cli::ArgParser parser("mcx_bench ablation-area-delay",
                        "Ablation A7: two-level vs multi-level area-delay tradeoff");
  if (const auto code = bench::parseSuiteArgs(parser, args)) return *code;

  struct Workload {
    const char* label;
    const char* preset;  ///< circuit registry name
  };
  const Workload workloads[] = {{"fig5 example", "fig5"},
                                {"rd53", "rd53-min"},
                                {"sqrt8", "sqrt8-min"},
                                {"t481 stand-in", "t481"},
                                {"majority-7", "majority7-min"}};

  TextTable table({"workload", "2L area", "2L cycles", "2L AD", "ML area", "ML cycles",
                   "ML AD", "ML wins area", "ML wins AD"});
  for (const Workload& w : workloads) {
    const std::shared_ptr<const Circuit> circuit = compileCircuit(w.preset);
    const AreaDelay two = twoLevelAreaDelay(circuit->cover);
    const NandNetwork net = mapToNand(circuit->cover);
    const AreaDelay multi = multiLevelAreaDelay(net);
    table.addRow({w.label, std::to_string(two.area), std::to_string(two.cycles),
                  std::to_string(two.product()), std::to_string(multi.area),
                  std::to_string(multi.cycles), std::to_string(multi.product()),
                  multi.area < two.area ? "yes" : "no",
                  multi.product() < two.product() ? "yes" : "no"});
  }
  std::cout << "Area-delay tradeoff (cycles per evaluation; AD = area x cycles):\n"
            << table << "\n";
  std::cout << "expected shape: the multi-level design's area wins shrink or vanish under\n"
               "the area-delay metric — its 2G+4-step evaluation is the hidden cost the\n"
               "paper's Section VI alludes to.\n";
  return 0;
}

}  // namespace

MCX_BENCH_SUITE("ablation-area-delay",
                "A7: area-delay tradeoff of two-level vs multi-level designs",
                runAreaDelay);
