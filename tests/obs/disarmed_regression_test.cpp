// The telemetry layer must be a pure observer: with tracing disarmed (the
// default) AND with a sink armed, the MC engine must keep reproducing the
// committed BENCH_defect_mc.json success count bit-for-bit. The spans live
// inside runDefectExperiment and the executor pool chunk loop, next to the
// always-on counters (mc.samples, pool.chunks) — this test proves none of
// them perturb the RNG streams or the work partition.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "committed_bench.hpp"
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

  // Disarmed (the production default): spans are inert.
  EXPECT_EQ(run().outcome.successes, committedCount)
      << "disarmed telemetry changed the MC result";

  // Armed: the trace sink records the same run.
  const std::string trace = ::testing::TempDir() + "mcx_disarmed_regression.json";
  obs::armTrace(trace);
  const ExperimentResult armed = run();
  obs::disarmTrace();
  std::remove(trace.c_str());
  EXPECT_EQ(armed.outcome.successes, committedCount)
      << "armed telemetry changed the MC result";
}

}  // namespace
}  // namespace mcx
