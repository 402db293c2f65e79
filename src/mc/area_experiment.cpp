#include "mc/area_experiment.hpp"

#include <algorithm>

#include "logic/generators.hpp"
#include "map/hybrid_mapper.hpp"
#include "mc/defect_experiment.hpp"
#include "mc/executor.hpp"
#include "util/error.hpp"
#include "xbar/area_model.hpp"
#include "xbar/function_matrix.hpp"
#include "xbar/multilevel_layout.hpp"

namespace mcx {

namespace {

/// Mapping success rate of @p fm on its optimum-size crossbar under
/// @p model: one single-lane engine run of @p draws samples, seeded from
/// the area sample's own stream @p rng (so fig6 stays thread-invariant).
double mappingYield(const FunctionMatrix& fm, const std::shared_ptr<const DefectModel>& model,
                    std::size_t draws, Rng& rng) {
  DefectExperimentConfig cfg;
  cfg.samples = draws;
  cfg.model = model;
  cfg.seed = rng();
  cfg.threads = 1;
  return runDefectExperiment(fm, HybridMapper(), cfg).successRate();
}

}  // namespace

double AreaExperimentResult::successRate() const {
  if (samples.empty()) return 0.0;
  std::size_t wins = 0;
  for (const AreaSample& s : samples)
    if (s.multiLevelArea < s.twoLevelArea) ++wins;
  return static_cast<double>(wins) / static_cast<double>(samples.size());
}

AreaExperimentResult runAreaExperiment(const AreaExperimentConfig& config) {
  MCX_REQUIRE(config.nin >= 2, "runAreaExperiment: need at least 2 inputs");
  const std::size_t maxP = config.maxProducts == 0 ? config.nin : config.maxProducts;
  MCX_REQUIRE(maxP >= config.minProducts && config.minProducts >= 1,
              "runAreaExperiment: bad product range");

  // One pre-split stream per sample, in sample order: sample i redraws
  // degenerate (constant) covers within its own stream, so the result set is
  // identical at any thread count.
  const std::vector<Rng> streams = splitSampleStreams(config.seed, config.samples);

  AreaExperimentResult result;
  result.samples.resize(config.samples);

  parallelForEach(config.samples, config.threads, [&](std::size_t, std::size_t i) {
    Rng rng = streams[i];
    for (;;) {
      RandomSopOptions sop;
      sop.nin = config.nin;
      sop.nout = 1;
      sop.products = static_cast<std::size_t>(rng.uniformInt(config.minProducts, maxP));
      sop.literalsPerProduct = config.literalsPerProduct;
      Cover cover = randomSop(sop, rng);
      cover = espressoMinimize(cover, config.espresso);
      if (cover.empty()) continue;  // degenerate (constant) draw; redraw
      // A cover whose single cube has no literals is constant 1 — skip too.
      if (cover.size() == 1 && cover.cube(0).literalCount() == 0) continue;

      const NandNetwork net = config.useBestMapping
                                  ? mapToNandBest(cover, config.nandMap.maxFanin)
                                  : mapToNand(cover, config.nandMap);

      AreaSample& sample = result.samples[i];
      sample.products = cover.size();
      sample.gates = net.gateCount();
      sample.twoLevelArea = twoLevelDims(cover).area();
      sample.multiLevelArea = multiLevelDims(net).area();
      if (config.defectModel) {
        sample.twoLevelYield =
            mappingYield(buildFunctionMatrix(cover), config.defectModel,
                         config.defectDraws, rng);
        sample.multiLevelYield =
            mappingYield(buildMultiLevelLayout(net).fm, config.defectModel,
                         config.defectDraws, rng);
      }
      return;
    }
  });

  std::sort(result.samples.begin(), result.samples.end(),
            [](const AreaSample& a, const AreaSample& b) { return a.products < b.products; });
  return result;
}

}  // namespace mcx
