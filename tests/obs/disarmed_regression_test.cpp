// The telemetry layer must be a pure observer: with tracing disarmed (the
// default) AND with a sink armed + profiling on, the MC engine must keep
// reproducing the committed BENCH_defect_mc.json success count bit-for-bit.
// The spans and gated counters live inside runDefectExperiment, the
// executor pool chunk loop and the Hopcroft–Karp engine — this test proves
// none of them perturb the RNG streams or the work partition.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "committed_bench.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mcx {
namespace {

TEST(ObsDisarmedRegression, TelemetryNeverPerturbsTheCommittedSuccessCounts) {
  // The committed rd53/HBA legacy cell.
  const SpecValue doc = committed::load("BENCH_defect_mc.json");
  const SpecValue* cell = committed::find(doc, "rd53-min", "hba", "legacy");
  ASSERT_NE(cell, nullptr) << "committed regression surface missing";
  const std::size_t committedCount = committed::successes(*cell);
  ASSERT_GT(committedCount, 0u) << "committed regression surface missing";
  const auto run = [cell] {
    return committed::replay(*cell).threads(2).run();  // spans + chunk counters pooled too
  };

  // Disarmed (the production default): spans are inert, gated counters off.
  obs::setProfiling(false);
  EXPECT_EQ(run().outcome.successes, committedCount)
      << "disarmed telemetry changed the MC result";

  // Fully armed: trace sink + profiling counters live on the same run.
  const std::string trace = ::testing::TempDir() + "mcx_disarmed_regression.json";
  obs::armTrace(trace);
  const ExperimentResult armed = run();
  obs::disarmTrace();
  obs::setProfiling(false);
  std::remove(trace.c_str());
  EXPECT_EQ(armed.outcome.successes, committedCount)
      << "armed telemetry changed the MC result";
}

}  // namespace
}  // namespace mcx
