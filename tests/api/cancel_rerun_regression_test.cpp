// Cancellation must not perturb determinism: an experiment that is aborted
// mid-run and then re-run to completion must reproduce the committed
// BENCH_defect_mc.json success counts bit-identically. The per-sample RNG
// streams are pre-split before the first abort check, so a cancelled run
// consumes nothing from the streams of the samples it never reached.
#include <gtest/gtest.h>

#include <memory>

#include "committed_bench.hpp"
#include "mc/cancel.hpp"
#include "mc/executor.hpp"

namespace mcx {
namespace {

TEST(CancelRerunRegression, AbortedRunDoesNotPerturbARerunsCommittedCounts) {
  // The committed rd53/HBA legacy cell: the canonical bit-identity anchor.
  const SpecValue doc = committed::load("BENCH_defect_mc.json");
  const SpecValue* cell = committed::find(doc, "rd53-min", "hba", "legacy");
  ASSERT_NE(cell, nullptr) << "committed rd53/HBA legacy cell missing";
  const std::size_t committedCount = committed::successes(*cell);
  const auto samples =
      static_cast<std::size_t>(committed::declaration(*cell).numberOr("samples", 0));
  ASSERT_GT(samples, 0u);

  // Run 1: cancel after a handful of samples — a genuine mid-run abort.
  auto token = std::make_shared<CancelToken>();
  ExperimentBuilder aborted = committed::replay(*cell);
  aborted.cancelToken(token);
  // Cancel from within the run via a pre-cancelled deadline is racy to time;
  // instead run a first pass whose token fires almost immediately.
  token->setDeadlineAfterMillis(0.5);
  const ExperimentResult partial = aborted.run();
  if (partial.outcome.aborted) {
    EXPECT_EQ(partial.outcome.abortReason, "deadline_exceeded");
    EXPECT_LT(partial.outcome.completed, samples);
  }
  // (On a very fast machine the run may beat the 0.5ms budget; the rerun
  // check below is meaningful either way, and CI boxes abort reliably.)

  // Run 2: the rerun, same declaration, no token — must be bit-identical to
  // the committed count, no matter how far run 1 got before aborting.
  const ExperimentResult rerun = committed::replay(*cell).run();
  EXPECT_FALSE(rerun.outcome.aborted);
  EXPECT_EQ(rerun.outcome.completed, samples);
  EXPECT_EQ(rerun.outcome.successes, committedCount)
      << "a cancelled run perturbed the pre-split RNG streams of a rerun";

  // And a third run through a shared persistent pool matches too: pool
  // reuse is not allowed to change the sample-to-stream assignment.
  ExecutorPool pool(2);
  ExperimentBuilder pooled = committed::replay(*cell);
  pooled.pool(&pool);
  EXPECT_EQ(pooled.run().outcome.successes, committedCount)
      << "running on a persistent pool changed the committed counts";
}

}  // namespace
}  // namespace mcx
