// Replay identity of the HybridMapper: on the reused scratch of one
// MappingContext, with its counting-sort row order and word-parallel phase-2
// gather, every preset must return exactly the verdict, row assignment and
// backtrack count of the mapper as first written (tests/oracles).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "circuit/cache.hpp"
#include "map/hybrid_mapper.hpp"
#include "map/registry.hpp"
#include "oracles/hba_reference.hpp"
#include "scenario/defect_model.hpp"
#include "util/rng.hpp"
#include "xbar/defects.hpp"

namespace mcx {
namespace {

struct Preset {
  const char* name;
  HybridMapperOptions opts;
};

const std::vector<Preset>& presets() {
  static const std::vector<Preset> all = {
      {"hba", {}},
      {"hba-paper", {.backtracking = true, .sortByCandidates = false}},
      {"hba-nobt", {.backtracking = false, .sortByCandidates = true}},
  };
  return all;
}

struct Tally {
  std::size_t calls = 0, successes = 0, backtracks = 0;
};

/// Every preset on (fm, cm) through @p ctx, against the reference on a
/// context of its own.
void expectSameAsReference(const FunctionMatrix& fm, const BitMatrix& cm, MappingContext& ctx,
                           const std::string& label, Tally& tally) {
  MappingContext refCtx;
  for (const Preset& preset : presets()) {
    SCOPED_TRACE(label + " " + preset.name);
    const MappingResult want = reference::hbaMap(preset.opts, fm, cm, refCtx);
    const MappingResult got = makeMapper(preset.name)->map(fm, cm, ctx);
    EXPECT_EQ(got.success, want.success);
    EXPECT_EQ(got.rowAssignment, want.rowAssignment);
    EXPECT_EQ(got.backtracks, want.backtracks);
    ++tally.calls;
    tally.successes += want.success ? 1 : 0;
    tally.backtracks += want.backtracks;
  }
}

TEST(HybridMapperIdentity, MatchesReferenceAcrossCircuitsRatesAndSpares) {
  // One context for every sample, circuit and preset, so stale scratch of
  // a larger or differently shaped call would show.
  MappingContext ctx;
  Tally tally;
  for (const char* name : {"bw", "rd53", "sqrt8", "alu4", "sao2"}) {
    for (const char* realize : {"two-level", "multilevel"}) {
      const std::string spec =
          std::string(R"({"circuit":")") + name + R"(","realize":")" + realize + R"("})";
      const FunctionMatrix& fm = compileCircuit(spec)->fm;
      for (const double open : {0.05, 0.10, 0.15}) {
        for (const double closed : {0.0, 0.01}) {
          const IidBernoulli model(open, closed);
          for (const std::size_t spares : {0, 2}) {
            Rng rng(0x4ba0 + static_cast<std::uint64_t>(open * 100) * 7 +
                    static_cast<std::uint64_t>(closed * 100) * 3 + spares);
            DefectMap defects;
            for (int s = 0; s < 8; ++s) {
              model.generate(fm.rows() + spares, fm.cols(), rng, defects);
              expectSameAsReference(fm, crossbarMatrix(defects), ctx,
                                    spec + " open " + std::to_string(open) + " closed " +
                                        std::to_string(closed) + " spares " +
                                        std::to_string(spares) + " sample " + std::to_string(s),
                                    tally);
              if (::testing::Test::HasFailure()) return;
            }
          }
        }
      }
    }
  }
  // The sweep reaches both verdicts and the backtracking repairs.
  EXPECT_GT(tally.successes, 0u);
  EXPECT_LT(tally.successes, tally.calls);
  EXPECT_GT(tally.backtracks, 0u);
}

TEST(HybridMapperIdentity, MatchesReferenceOnEdgeShapes) {
  MappingContext ctx;
  Tally tally;
  const FunctionMatrix& bw = compileCircuit("bw")->fm;

  // Zero product rows: phase 2 alone decides.
  FunctionMatrix outputsOnly(3, 4, 0, 0);
  for (std::size_t o = 0; o < outputsOnly.nout(); ++o) {
    outputsOnly.bits().set(o, outputsOnly.colOfOutput(o));
    outputsOnly.bits().set(o, outputsOnly.colOfOutputBar(o));
  }
  BitMatrix clean(outputsOnly.rows() + 1, outputsOnly.cols(), true);
  expectSameAsReference(outputsOnly, clean, ctx, "no product rows, clean", tally);
  clean.reset(1, outputsOnly.colOfOutput(2));
  clean.reset(3, outputsOnly.colOfOutputBar(2));
  expectSameAsReference(outputsOnly, clean, ctx, "no product rows, output 2 squeezed", tally);

  // A row with zero candidates: a column stuck open on every CM row.
  BitMatrix dead(bw.rows() + 2, bw.cols(), true);
  dead.setCol(bw.colOfPosLiteral(0), false);
  expectSameAsReference(bw, dead, ctx, "row without candidates", tally);

  // More FM rows than CM rows.
  const BitMatrix small(bw.rows() - 1, bw.cols(), true);
  expectSameAsReference(bw, small, ctx, "fm.rows() > cm.rows()", tally);

  // Word-boundary CM heights around the FM, dense defects included.
  Rng rng(0xed9e);
  DefectMap defects;
  for (const std::size_t spares : {0, 1, 63, 64, 65, 130}) {
    for (const double open : {0.02, 0.3}) {
      IidBernoulli(open, 0.0).generate(bw.rows() + spares, bw.cols(), rng, defects);
      expectSameAsReference(bw, crossbarMatrix(defects), ctx,
                            "bw spares " + std::to_string(spares) + " open " +
                                std::to_string(open),
                            tally);
    }
  }
  EXPECT_GT(tally.successes, 0u);
  EXPECT_LT(tally.successes, tally.calls);
}

}  // namespace
}  // namespace mcx
