#include "mc/defect_experiment.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <utility>

#include "logic/sop_parser.hpp"
#include "map/column_permutation_mapper.hpp"
#include "map/exact_mapper.hpp"
#include "map/hybrid_mapper.hpp"
#include "mc/executor.hpp"
#include "scenario/defect_model.hpp"
#include "scenario/registry.hpp"
#include "util/error.hpp"

namespace mcx {
namespace {

FunctionMatrix testFm() {
  return buildFunctionMatrix(parseSop("x1 x2 + !x2 x3 + x1 !x3 + x2 x3"));
}

// Success counts observed for the sparse sampler at the exact seeds/rates
// of SparseSamplerPinnedSuccessCounts; see that test for the re-pin policy.
constexpr std::size_t kPinnedSparseSuccesses = 20;
constexpr std::size_t kPinnedSparseMixedSuccesses = 3;

TEST(DefectExperiment, ZeroRateGivesFullSuccess) {
  DefectExperimentConfig cfg;
  cfg.samples = 20;
  cfg.model = std::make_shared<IidBernoulli>(0.0);
  const DefectExperimentResult r = runDefectExperiment(testFm(), HybridMapper(), cfg);
  EXPECT_EQ(r.successes, 20u);
  EXPECT_DOUBLE_EQ(r.successRate(), 1.0);
}

TEST(DefectExperiment, SaturatedRateGivesZeroSuccess) {
  DefectExperimentConfig cfg;
  cfg.samples = 10;
  cfg.model = std::make_shared<IidBernoulli>(1.0);
  const DefectExperimentResult r = runDefectExperiment(testFm(), HybridMapper(), cfg);
  EXPECT_EQ(r.successes, 0u);
}

TEST(DefectExperiment, DeterministicForFixedSeed) {
  DefectExperimentConfig cfg;
  cfg.samples = 50;
  cfg.model = std::make_shared<IidBernoulli>(0.15);
  cfg.seed = 77;
  const auto a = runDefectExperiment(testFm(), HybridMapper(), cfg);
  const auto b = runDefectExperiment(testFm(), HybridMapper(), cfg);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.totalBacktracks, b.totalBacktracks);
}

TEST(DefectExperiment, ExactAtLeastAsSuccessful) {
  DefectExperimentConfig cfg;
  cfg.samples = 60;
  cfg.model = std::make_shared<IidBernoulli>(0.12);
  const auto hba = runDefectExperiment(testFm(), HybridMapper(), cfg);
  const auto ea = runDefectExperiment(testFm(), ExactMapper(), cfg);
  EXPECT_GE(ea.successes, hba.successes);
}

TEST(DefectExperiment, SpareRowsImproveSuccess) {
  DefectExperimentConfig base;
  base.samples = 60;
  base.model = std::make_shared<IidBernoulli>(0.25);
  DefectExperimentConfig spare = base;
  spare.spares.spareRows = 3;
  const auto without = runDefectExperiment(testFm(), HybridMapper(), base);
  const auto with = runDefectExperiment(testFm(), HybridMapper(), spare);
  EXPECT_GE(with.successes, without.successes);
}

TEST(DefectExperiment, SparePairsNeedColumnAssignmentMapper) {
  // Spare pairs widen every sampled crossbar: a row-only mapper rejects the
  // wide CM; colperm turns the spares into yield under stuck-closed
  // defects (fatal on the optimum-size crossbar), every success verified.
  DefectExperimentConfig cfg;
  cfg.samples = 80;
  cfg.model = std::make_shared<IidBernoulli>(0.05, 0.01);
  const ColumnPermutationMapper colperm;
  const std::size_t optimum = runDefectExperiment(testFm(), colperm, cfg).successes;
  cfg.spares = {2, 2, 1};
  EXPECT_THROW(runDefectExperiment(testFm(), HybridMapper(), cfg), InvalidArgument);
  const std::size_t redundant = runDefectExperiment(testFm(), colperm, cfg).successes;
  EXPECT_GT(redundant, optimum);
  cfg.threads = 1;
  EXPECT_EQ(runDefectExperiment(testFm(), colperm, cfg).successes, redundant);
}

TEST(DefectExperiment, TimingIsPopulatedWhenOptedIn) {
  DefectExperimentConfig cfg;
  cfg.samples = 5;
  cfg.model = std::make_shared<IidBernoulli>(0.10);
  cfg.timePerSample = true;
  const auto r = runDefectExperiment(testFm(), HybridMapper(), cfg);
  EXPECT_EQ(r.perSampleMillis.count, 5u);
  EXPECT_GE(r.meanSeconds(), 0.0);
  EXPECT_GE(r.totalSeconds, 0.0);
}

TEST(DefectExperiment, PerSampleTimingIsOffByDefault) {
  // Sweep-style callers should not pay two clock reads per sample; the
  // aggregate wall time of the run is still reported.
  DefectExperimentConfig cfg;
  cfg.samples = 5;
  cfg.model = std::make_shared<IidBernoulli>(0.10);
  const auto r = runDefectExperiment(testFm(), HybridMapper(), cfg);
  EXPECT_EQ(r.perSampleMillis.count, 0u);
  EXPECT_GT(r.totalSeconds, 0.0);
  EXPECT_GT(r.meanSeconds(), 0.0);
}

TEST(DefectExperiment, TimingKnobDoesNotChangeOutcomes) {
  DefectExperimentConfig cfg;
  cfg.samples = 40;
  cfg.model = std::make_shared<IidBernoulli>(0.15);
  cfg.seed = 123;
  cfg.keepMappings = true;
  DefectExperimentConfig timed = cfg;
  timed.timePerSample = true;
  const auto a = runDefectExperiment(testFm(), HybridMapper(), cfg);
  const auto b = runDefectExperiment(testFm(), HybridMapper(), timed);
  EXPECT_EQ(a.successes, b.successes);
  ASSERT_EQ(a.mappings.size(), b.mappings.size());
  for (std::size_t s = 0; s < a.mappings.size(); ++s)
    EXPECT_EQ(a.mappings[s].rowAssignment, b.mappings[s].rowAssignment);
}

TEST(DefectExperiment, ResultsAreIdenticalAtAnyThreadCount) {
  // Covers the legacy IidBernoulli stream and both sparse samplers
  // (stuck-open only, and mixed with stuck-closed poisoning): the
  // determinism contract binds every sampler the engine can run.
  const std::vector<std::shared_ptr<const DefectModel>> models = {
      std::make_shared<IidBernoulli>(0.12, 0.0),
      std::make_shared<SparseIidBernoulli>(0.12, 0.0),
      std::make_shared<SparseIidBernoulli>(0.10, 0.02),
  };
  for (const auto& model : models) {
    SCOPED_TRACE(model->describe());
    DefectExperimentConfig base;
    base.samples = 64;
    base.model = model;
    base.seed = 0xfeed;
    base.keepMappings = true;
    base.threads = 1;
    const auto reference = runDefectExperiment(testFm(), HybridMapper(), base);
    ASSERT_EQ(reference.mappings.size(), base.samples);

    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      DefectExperimentConfig cfg = base;
      cfg.threads = threads;
      const auto got = runDefectExperiment(testFm(), HybridMapper(), cfg);
      EXPECT_EQ(got.successes, reference.successes) << "threads=" << threads;
      EXPECT_EQ(got.totalBacktracks, reference.totalBacktracks) << "threads=" << threads;
      ASSERT_EQ(got.mappings.size(), reference.mappings.size());
      for (std::size_t s = 0; s < got.mappings.size(); ++s) {
        EXPECT_EQ(got.mappings[s].success, reference.mappings[s].success)
            << "threads=" << threads << " sample=" << s;
        EXPECT_EQ(got.mappings[s].rowAssignment, reference.mappings[s].rowAssignment)
            << "threads=" << threads << " sample=" << s;
      }
    }
  }
}

TEST(DefectExperiment, ResultsAreIdenticalAtAnyThreadCountForNonIidModels) {
  // The determinism contract is a property of the engine + every
  // DefectModel, not of the paper's i.i.d. sampler: correlated scenarios
  // draw variable amounts of randomness per sample, which is exactly the
  // pattern that would break a naive shared-stream implementation.
  for (const char* scenario : {"clustered", "lines", "composite"}) {
    DefectExperimentConfig base;
    base.samples = 48;
    base.seed = 0xfeed;
    base.model = makeScenario(scenario, 0.08);
    base.keepMappings = true;
    base.threads = 1;
    const auto reference = runDefectExperiment(testFm(), HybridMapper(), base);

    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      DefectExperimentConfig cfg = base;
      cfg.threads = threads;
      const auto got = runDefectExperiment(testFm(), HybridMapper(), cfg);
      EXPECT_EQ(got.successes, reference.successes)
          << "scenario=" << scenario << " threads=" << threads;
      ASSERT_EQ(got.mappings.size(), reference.mappings.size());
      for (std::size_t s = 0; s < got.mappings.size(); ++s)
        EXPECT_EQ(got.mappings[s].rowAssignment, reference.mappings[s].rowAssignment)
            << "scenario=" << scenario << " threads=" << threads << " sample=" << s;
    }
  }
}

TEST(DefectExperiment, MatchesRederivedSampleStreams) {
  // Sample s of a run is drawn from splitSampleStreams(seed, n)[s]: a
  // caller re-deriving it through DefectModel::sample sees the engine's
  // crossbar, and the engine's reused per-worker contexts must reproduce
  // the plain mapper.map() on it exactly. Checked for the legacy sampler
  // and the sparse one.
  const std::vector<std::shared_ptr<const DefectModel>> models = {
      std::make_shared<IidBernoulli>(0.15),
      std::make_shared<SparseIidBernoulli>(0.15, 0.01),
  };
  for (const auto& model : models) {
    SCOPED_TRACE(model->describe());
    DefectExperimentConfig cfg;
    cfg.samples = 16;
    cfg.model = model;
    cfg.seed = 99;
    cfg.keepMappings = true;
    cfg.threads = 4;
    const auto result = runDefectExperiment(testFm(), HybridMapper(), cfg);
    ASSERT_EQ(result.mappings.size(), cfg.samples);

    const HybridMapper mapper;
    const FunctionMatrix fm = testFm();
    const std::vector<Rng> streams = splitSampleStreams(cfg.seed, cfg.samples);
    for (std::size_t s = 0; s < cfg.samples; ++s) {
      Rng rng = streams[s];
      const BitMatrix cm = crossbarMatrix(model->sample(fm.rows(), fm.cols(), rng));
      const MappingResult direct = mapper.map(fm, cm);
      EXPECT_EQ(direct.success, result.mappings[s].success) << "sample=" << s;
      EXPECT_EQ(direct.rowAssignment, result.mappings[s].rowAssignment) << "sample=" << s;
    }
  }
}

TEST(DefectExperiment, NullModelIsRejected) {
  DefectExperimentConfig cfg;
  cfg.samples = 4;
  EXPECT_THROW(runDefectExperiment(testFm(), HybridMapper(), cfg), InvalidArgument);
}

TEST(DefectExperiment, SparseSamplerPinnedSuccessCounts) {
  // Pinned regression for the sparse stream on one circuit: a refactor of
  // the binomial inversion, the 32-bit placement draws, or the redraw rule
  // would silently shift every sparse experiment. If this fails after an
  // INTENTIONAL sampler change, re-pin the counts (and expect the bench
  // JSONs to move too); an unintentional failure is a broken stream.
  const FunctionMatrix fm = testFm();
  DefectExperimentConfig cfg;
  cfg.samples = 120;
  cfg.seed = 0x5eed;
  cfg.threads = 1;
  cfg.model = std::make_shared<SparseIidBernoulli>(0.20, 0.0);
  const auto hba = runDefectExperiment(fm, HybridMapper(), cfg);
  cfg.model = std::make_shared<SparseIidBernoulli>(0.15, 0.05);
  const auto mixed = runDefectExperiment(fm, HybridMapper(), cfg);
  EXPECT_EQ(hba.successes, kPinnedSparseSuccesses);
  EXPECT_EQ(mixed.successes, kPinnedSparseMixedSuccesses);
}

/// Delegates to an inner model but fires the token during the FINAL
/// sample's defect draw: the per-sample abort check has already passed, so
/// every sample completes while the token ends the run "stopped" — the race
/// a deadline expiring between the last sample and the engine's final
/// bookkeeping produces in the wild, made deterministic.
class CancelOnLastDrawModel : public DefectModel {
public:
  CancelOnLastDrawModel(std::shared_ptr<const DefectModel> inner, CancelToken* token,
                        std::size_t lastDraw)
      : inner_(std::move(inner)), token_(token), lastDraw_(lastDraw) {}
  std::string name() const override { return inner_->name(); }
  std::string describe() const override { return inner_->describe(); }
  void generate(std::size_t rows, std::size_t cols, Rng& rng,
                DefectMap& out) const override {
    if (draws_.fetch_add(1) + 1 == lastDraw_) token_->cancel();
    inner_->generate(rows, cols, rng, out);
  }

private:
  std::shared_ptr<const DefectModel> inner_;
  CancelToken* token_;
  std::size_t lastDraw_;
  mutable std::atomic<std::size_t> draws_{0};
};

TEST(DefectExperiment, TokenFiringAfterTheLastSampleDoesNotLabelTheRunAborted) {
  DefectExperimentConfig cfg;
  cfg.samples = 8;
  cfg.threads = 1;
  cfg.seed = 5;
  cfg.cancel = std::make_shared<CancelToken>();
  cfg.model = std::make_shared<CancelOnLastDrawModel>(
      std::make_shared<IidBernoulli>(0.1, 0.0), cfg.cancel.get(), cfg.samples);
  const DefectExperimentResult r = runDefectExperiment(testFm(), HybridMapper(), cfg);
  // All samples ran; a fully-completed run must never be reported aborted
  // even though the token is now signalling stop.
  EXPECT_EQ(r.completed, cfg.samples);
  EXPECT_FALSE(r.aborted);
  EXPECT_EQ(r.abortReason, "");
}

/// Forwards one sample at a time to an inner model: width 1, so a run
/// through it is the per-sample reference for the engine's blocks.
class PerSampleModel : public DefectModel {
public:
  explicit PerSampleModel(std::shared_ptr<const DefectModel> inner) : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  std::string describe() const override { return inner_->describe(); }
  void generate(std::size_t rows, std::size_t cols, Rng& rng,
                DefectMap& out) const override {
    inner_->generate(rows, cols, rng, out);
  }

protected:
  std::shared_ptr<const DefectModel> inner_;
};

void expectSameRun(const DefectExperimentResult& got, const DefectExperimentResult& want) {
  EXPECT_EQ(got.completed, want.completed);
  EXPECT_EQ(got.successes, want.successes);
  EXPECT_EQ(got.totalBacktracks, want.totalBacktracks);
  ASSERT_EQ(got.mappings.size(), want.mappings.size());
  for (std::size_t s = 0; s < got.mappings.size(); ++s) {
    EXPECT_EQ(got.mappings[s].success, want.mappings[s].success) << "sample=" << s;
    EXPECT_EQ(got.mappings[s].rowAssignment, want.mappings[s].rowAssignment) << "sample=" << s;
  }
}

TEST(DefectExperiment, DenseBlocksMatchPerSampleRuns) {
  // Sample counts around the block width (a single sample, part blocks,
  // exact multiples) and thread counts that shrink the width so every pool
  // slot gets a block.
  for (const auto& [open, closed] : {std::pair{0.15, 0.0}, std::pair{0.12, 0.02}}) {
    const auto model = std::make_shared<IidBernoulli>(open, closed);
    ASSERT_GT(model->blockWidth(), 1u);
    for (const std::size_t samples : {1, 2, 7, 8, 9, 17, 50, 64}) {
      DefectExperimentConfig cfg;
      cfg.samples = samples;
      cfg.seed = 0xb10c + samples;
      cfg.keepMappings = true;
      cfg.threads = 1;
      cfg.model = std::make_shared<PerSampleModel>(model);
      const auto reference = runDefectExperiment(testFm(), HybridMapper(), cfg);
      ASSERT_EQ(reference.completed, samples);
      cfg.model = model;
      for (const std::size_t threads : {1, 2, 4, 8}) {
        SCOPED_TRACE(model->describe() + " samples=" + std::to_string(samples) +
                     " threads=" + std::to_string(threads));
        cfg.threads = threads;
        expectSameRun(runDefectExperiment(testFm(), HybridMapper(), cfg), reference);
      }
    }
  }
}

/// Forwards the block interface of an inner model too, and fires the token
/// while drawing block @p cancelBlock (1-based), after that block's check.
class CancelInBlockModel : public PerSampleModel {
public:
  CancelInBlockModel(std::shared_ptr<const DefectModel> inner, CancelToken* token,
                     std::size_t cancelBlock)
      : PerSampleModel(std::move(inner)), token_(token), cancelBlock_(cancelBlock) {}
  std::size_t blockWidth() const override { return inner_->blockWidth(); }
  void generateBlock(std::size_t rows, std::size_t cols, Rng* rngs, DefectMap* outs,
                     std::size_t k) const override {
    if (blocks_.fetch_add(1) + 1 == cancelBlock_) token_->cancel();
    inner_->generateBlock(rows, cols, rngs, outs, k);
  }

private:
  CancelToken* token_;
  std::size_t cancelBlock_;
  mutable std::atomic<std::size_t> blocks_{0};
};

TEST(DefectExperiment, TokenFiringInsideABlockFinishesThatBlock) {
  const auto inner = std::make_shared<IidBernoulli>(0.15, 0.0);
  const std::size_t width = inner->blockWidth();
  DefectExperimentConfig cfg;
  cfg.samples = 50;
  cfg.threads = 1;
  cfg.seed = 28;
  cfg.keepMappings = true;
  ASSERT_GT(cfg.samples, 2 * width);
  cfg.model = inner;
  const auto full = runDefectExperiment(testFm(), HybridMapper(), cfg);
  ASSERT_EQ(full.completed, cfg.samples);

  DefectExperimentConfig cancelled = cfg;
  cancelled.cancel = std::make_shared<CancelToken>();
  cancelled.model = std::make_shared<CancelInBlockModel>(inner, cancelled.cancel.get(), 2);
  const auto partial = runDefectExperiment(testFm(), HybridMapper(), cancelled);
  // Blocks 1 and 2 were drawn before the token was seen, so both finish.
  EXPECT_EQ(partial.completed, 2 * width);
  EXPECT_TRUE(partial.aborted);
  EXPECT_EQ(partial.abortReason, "cancelled");
  ASSERT_EQ(partial.mappings.size(), cfg.samples);
  for (std::size_t s = 0; s < 2 * width; ++s)
    EXPECT_EQ(partial.mappings[s].rowAssignment, full.mappings[s].rowAssignment)
        << "sample=" << s;

  // The cancelled run consumed no stream of the samples it skipped.
  expectSameRun(runDefectExperiment(testFm(), HybridMapper(), cfg), full);
}

}  // namespace
}  // namespace mcx
