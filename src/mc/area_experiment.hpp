// Two-level vs multi-level area comparison on random functions (Fig. 6).
//
// For each sample a random single-output SOP is drawn, minimized with the
// espresso-style minimizer (the two-level implementation), factored and
// mapped to NAND gates (the multi-level implementation), and both crossbar
// areas are computed. The paper reports, per input size, the cost series
// sorted by product count and the "success rate" — the share of samples
// whose multi-level area beats the two-level one. With a defect scenario,
// each sample's two implementations also get a mapping yield from the Monte
// Carlo engine (runDefectExperiment), seeded from the sample's stream.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "logic/espresso.hpp"
#include "netlist/nand_mapper.hpp"
#include "scenario/defect_model.hpp"

namespace mcx {

struct AreaExperimentConfig {
  std::size_t nin = 8;
  std::size_t samples = 200;        ///< the paper's sample size
  std::size_t minProducts = 2;      ///< random P range before minimization
  std::size_t maxProducts = 0;      ///< 0 = nin (tracks the paper's ranges)
  double literalsPerProduct = 3.0;
  std::uint64_t seed = 6;
  /// Worker threads; 0 = hardware concurrency. Results do not depend on
  /// this knob (one pre-split RNG stream per sample; degenerate draws are
  /// redrawn within the sample's own stream).
  std::size_t threads = 0;
  EspressoOptions espresso;
  /// Pick the best of flat / quick / kernel mapping per sample (like a real
  /// technology mapper); when false, nandMap is used as given.
  bool useBestMapping = true;
  NandMapOptions nandMap;           ///< used when useBestMapping is false
  /// Optional defect scenario: when set, each sample's two-level and
  /// multi-level implementations are additionally mapped (HBA) against
  /// defectDraws maps from the model, recording per-implementation yield —
  /// the area/yield tradeoff Fig. 6 does not capture. Each yield is one
  /// single-lane runDefectExperiment seeded from the sample's own pre-split
  /// stream, so results stay thread-count-invariant.
  std::shared_ptr<const DefectModel> defectModel;
  std::size_t defectDraws = 20;
};

struct AreaSample {
  std::size_t products = 0;      ///< minimized product count
  std::size_t gates = 0;         ///< NAND gates in the multi-level network
  std::size_t twoLevelArea = 0;
  std::size_t multiLevelArea = 0;
  double twoLevelYield = -1.0;   ///< mapping success rate; -1 = not measured
  double multiLevelYield = -1.0;
};

struct AreaExperimentResult {
  std::vector<AreaSample> samples;  ///< sorted by product count (paper's x axis)
  /// Share of samples with multiLevelArea < twoLevelArea.
  double successRate() const;
};

AreaExperimentResult runAreaExperiment(const AreaExperimentConfig& config);

}  // namespace mcx
