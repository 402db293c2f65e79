// Ablation A9: transient-fault sensitivity of mapped crossbars.
//
// The paper explicitly scopes transient faults out ("we only explore the
// switching defects"); this bench measures them: output bit-error rate as a
// function of per-evaluation transient open/short rates, on crossbars
// already carrying 5% permanent stuck-open defects and a valid HBA mapping.
#include <iostream>
#include <vector>

#include "api/driver.hpp"
#include "circuit/cache.hpp"
#include "map/hybrid_mapper.hpp"
#include "scenario/defect_model.hpp"
#include "sim/transient_faults.hpp"
#include "util/text_table.hpp"
#include "xbar/layout.hpp"

namespace {

int runTransient(const std::vector<std::string>& args) {
  using namespace mcx;

  bench::CommonOptions common;
  cli::ArgParser parser("mcx_bench ablation-transient",
                        "Ablation A9: transient-fault bit-error rates on mapped crossbars");
  common.addSamplesTo(parser);
  if (const auto code = bench::parseSuiteArgs(parser, args)) return *code;

  const std::size_t trials = common.samplesOr(200) * 2;
  std::cout << "Transient-fault sensitivity (HBA-mapped crossbars with 5% permanent\n"
               "stuck-open defects; " << trials << " random evaluations per cell)\n\n";

  for (const char* name : {"rd53", "misex1"}) {
    const TwoLevelLayout layout = buildTwoLevelLayout(compileCircuit(name)->cover);

    // Find one permanently-defective crossbar with a valid mapping.
    Rng rng(0x7a5);
    MappingResult mapping;
    DefectMap defects;
    for (int attempt = 0; attempt < 50 && !mapping.success; ++attempt) {
      Rng sample = rng.split();
      defects = IidBernoulli(0.05).sample(layout.fm.rows(), layout.fm.cols(), sample);
      mapping = HybridMapper().map(layout.fm, crossbarMatrix(defects));
    }
    if (!mapping.success) {
      std::cout << name << ": no valid permanent mapping found (unexpected)\n";
      continue;
    }

    TextTable table({"transient open", "transient short", "output bit-error rate"});
    for (const double open : {0.0, 0.005, 0.02, 0.05}) {
      for (const double shortRate : {0.0, 0.005}) {
        if (open == 0.0 && shortRate == 0.0) continue;
        TransientFaultConfig cfg;
        cfg.openRate = open;
        cfg.shortRate = shortRate;
        Rng evalRng(99);
        const TransientFaultStats stats = measureTransientErrors(
            layout, mapping.rowAssignment, defects, cfg, trials, evalRng);
        table.addRow({TextTable::percent(open, 1), TextTable::percent(shortRate, 1),
                      TextTable::percent(stats.bitErrorRate(), 2)});
      }
    }
    std::cout << name << ":\n" << table << "\n";
  }
  std::cout << "expected shape: bit-error rate grows with both rates; transient shorts\n"
               "dominate (each poisons a full row and column for that evaluation) —\n"
               "quantifying why the paper's permanent-defect mapping alone cannot give\n"
               "reliability guarantees under runtime faults.\n";
  return 0;
}

}  // namespace

MCX_BENCH_SUITE("ablation-transient", "A9: transient-fault bit-error sensitivity",
                runTransient);
