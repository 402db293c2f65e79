// Rescue identity of the approx mapper: its word-parallel augmenting pass
// on reused scratch, with the realized error counted from the memoized cube
// tables, must return exactly the MappingResult of the textbook rescue — a
// scalar Kuhn DFS testing every (row, column) pair, scored by
// approx::coverSubsetError — down to the row assignment, on engine-drawn
// samples of the cells the approx experiments run.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "approx/approx_mapper.hpp"
#include "approx/error.hpp"
#include "circuit/cache.hpp"
#include "map/registry.hpp"
#include "mc/executor.hpp"
#include "scenario/registry.hpp"
#include "xbar/defects.hpp"

namespace mcx {
namespace {

// Inverse of buildFunctionMatrix for two-level matrices.
Cover coverOfFunctionMatrix(const FunctionMatrix& fm) {
  Cover cover(fm.nin(), fm.numOutputRows());
  for (std::size_t r = 0; r < fm.numProductRows(); ++r) {
    Cube c(fm.nin(), fm.numOutputRows());
    for (std::size_t v = 0; v < fm.nin(); ++v) {
      if (fm.bits().test(r, fm.colOfPosLiteral(v))) c.setLit(v, Lit::Pos);
      if (fm.bits().test(r, fm.colOfNegLiteral(v))) c.setLit(v, Lit::Neg);
    }
    for (std::size_t o = 0; o < fm.numOutputRows(); ++o)
      if (fm.bits().test(r, fm.colOfOutput(o))) c.setOut(o);
    cover.add(std::move(c));
  }
  return cover;
}

/// The textbook rescue: unique-coverage weights, heaviest-first order, one
/// scalar Kuhn DFS per row, error from coverSubsetError.
struct TextbookRescue {
  Cover cover;
  std::vector<std::size_t> order;

  explicit TextbookRescue(const FunctionMatrix& fm) : cover(coverOfFunctionMatrix(fm)) {
    const std::size_t products = cover.size();
    std::vector<DynBits> cubeTt;
    for (std::size_t i = 0; i < products; ++i) cubeTt.push_back(ttOfCube(cover.cube(i)));
    std::vector<std::uint64_t> weight(products, 0);
    for (std::size_t o = 0; o < cover.nout(); ++o) {
      for (std::size_t i = 0; i < products; ++i) {
        if (!cover.cube(i).out(o)) continue;
        DynBits unique = cubeTt[i];
        for (std::size_t j = 0; j < products && unique.count() > 0; ++j)
          if (j != i && cover.cube(j).out(o)) unique.andNot(cubeTt[j]);
        weight[i] += unique.count();
      }
    }
    order.resize(products);
    for (std::size_t i = 0; i < products; ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&weight](std::size_t a, std::size_t b) { return weight[a] > weight[b]; });
  }

  MappingResult map(const FunctionMatrix& fm, const BitMatrix& cm, const IMapper& inner,
                    double epsilon) const {
    MappingResult innerFailure = inner.map(fm, cm);
    if (innerFailure.success) return innerFailure;
    const BitMatrix adjacency = buildCandidateAdjacency(fm.bits(), cm);
    const std::size_t products = fm.numProductRows();
    const std::size_t nout = fm.numOutputRows();

    std::vector<std::size_t> rowOfCm(cm.rows(), MappingResult::kUnassigned);
    std::vector<std::size_t> cmOfRow(fm.rows(), MappingResult::kUnassigned);
    std::vector<unsigned char> visited(cm.rows(), 0);

    const auto augment = [&](std::size_t r) -> bool {
      std::fill(visited.begin(), visited.end(), 0);
      std::vector<std::pair<std::size_t, std::size_t>> stack{{r, 0}};
      std::vector<std::size_t> path;
      while (!stack.empty()) {
        auto& [row, col] = stack.back();
        bool descended = false;
        for (; col < cm.rows(); ++col) {
          if (visited[col] || !adjacency.test(row, col)) continue;
          visited[col] = 1;
          path.resize(stack.size());
          path[stack.size() - 1] = col;
          const std::size_t occupant = rowOfCm[col];
          if (occupant == MappingResult::kUnassigned) {
            for (std::size_t d = 0; d < stack.size(); ++d) {
              rowOfCm[path[d]] = stack[d].first;
              cmOfRow[stack[d].first] = path[d];
            }
            return true;
          }
          ++col;
          stack.emplace_back(occupant, 0);
          descended = true;
          break;
        }
        if (!descended) stack.pop_back();
      }
      return false;
    };

    for (std::size_t o = 0; o < nout; ++o)
      if (!augment(fm.rowOfOutput(o))) return innerFailure;
    std::vector<std::size_t> dropped;
    for (const std::size_t r : order)
      if (!augment(r)) dropped.push_back(r);

    if (dropped.empty()) {
      MappingResult full;
      full.success = true;
      full.rowAssignment = std::move(cmOfRow);
      full.backtracks = innerFailure.backtracks;
      full.realizedError = 0.0;
      return full;
    }
    std::vector<std::size_t> retained;
    for (std::size_t i = 0; i < products; ++i)
      if (cmOfRow[i] != MappingResult::kUnassigned) retained.push_back(i);
    const double err = approx::coverSubsetError(cover, retained).fraction();
    if (err > epsilon) return innerFailure;

    std::sort(dropped.begin(), dropped.end());
    MappingResult partial;
    partial.success = false;
    partial.rowAssignment = std::move(cmOfRow);
    partial.droppedRows = std::move(dropped);
    partial.realizedError = err;
    partial.backtracks = innerFailure.backtracks;
    return partial;
  }
};

void expectSameResult(const MappingResult& got, const MappingResult& want) {
  EXPECT_EQ(got.success, want.success);
  EXPECT_EQ(got.rowAssignment, want.rowAssignment);
  EXPECT_EQ(got.droppedRows, want.droppedRows);
  EXPECT_EQ(got.realizedError, want.realizedError);  // exact, not near
  EXPECT_EQ(got.backtracks, want.backtracks);
}

struct IdentityCell {
  const char* circuit;
  double rate;
  std::size_t samples;
};

/// Samples whose inner mapper failed, and how many of those the rescue
/// turned into graded partials or promoted to a full success.
struct Tally {
  std::size_t rescues = 0, partials = 0, promotions = 0;
};

/// Replays a cell's engine-drawn defect maps (with @p spareRows spare CM
/// rows) through the mapper, by both the plain and the context overload,
/// and through the textbook rescue.

Tally replayCell(const IdentityCell& cell, const std::string& innerSpec, std::size_t spareRows) {
  const std::shared_ptr<const Circuit> circuit = compileCircuit(cell.circuit);
  const FunctionMatrix& fm = circuit->fm;
  const std::shared_ptr<const IMapper> inner = makeMapper(innerSpec);
  const double epsilon = 0.05;
  const ApproxMapper mapper(ApproxMapperOptions{epsilon}, inner);
  const TextbookRescue textbook(fm);
  const auto model = makeScenario("paper-iid", cell.rate);
  const std::size_t rows = fm.rows() + spareRows;

  Tally tally;
  DefectMap defects;
  DirtyRows dirty;
  BitMatrix cm;
  MappingContext ctx;
  std::size_t s = 0;
  for (Rng rng : splitSampleStreams(0x5e5c + spareRows, cell.samples)) {
    SCOPED_TRACE(std::string(cell.circuit) + " inner=" + innerSpec + " spares=" +
                 std::to_string(spareRows) + " sample " + std::to_string(s++));
    model->generateTracked(rows, fm.cols(), rng, defects, dirty);
    crossbarMatrixInto(defects, cm);
    ctx.setSample(&defects, &dirty);
    const MappingResult want = textbook.map(fm, cm, *inner, epsilon);
    expectSameResult(mapper.map(fm, cm), want);
    expectSameResult(mapper.map(fm, cm, ctx), want);
    if (::testing::Test::HasFailure()) break;
    if (inner->map(fm, cm).success) continue;
    ++tally.rescues;
    if (want.success) ++tally.promotions;
    if (!want.droppedRows.empty()) ++tally.partials;
  }
  return tally;
}

// rd73's 150 FM rows span three adjacency words, so its DFS resumes across
// word boundaries. The exact inner fails on about 1.5% of sqrt8-min samples
// at 12% and 2% of rd73's at 5%, hence their longer runs.
const IdentityCell kCells[] = {
    {"rd53-min", 0.25, 150},
    {"nn-small", 0.20, 150},
    {"sqrt8-min", 0.12, 800},
    {"rd73", 0.05, 400},
};

// One spare row makes every cell's full matching easier (cm.rows() >
// fm.rows()); the exact inner then never fails on sqrt8-min or rd73, so the
// spare-row rescues of those two come from the heuristic inner below.
TEST(ApproxTestRescueIdentity, MatchesTextbookRescueBehindTheExactInner) {
  for (const std::size_t spares : {std::size_t{0}, std::size_t{1}}) {
    std::size_t partials = 0;
    for (const IdentityCell& cell : kCells) {
      const Tally t = replayCell(cell, "fast-ea", spares);
      if (spares == 0) {
        EXPECT_GT(t.rescues, 0u) << cell.circuit << " must reach the rescue";
      }
      partials += t.partials;
    }
    EXPECT_GT(partials, 0u) << "some rescue must land within the budget";
  }
}

TEST(ApproxTestRescueIdentity, MatchesTextbookRescueBehindTheHeuristicInner) {
  // The paper-order HBA misses matchings that exist, so its failures reach
  // the rescue's promote-to-success branch as well as graded partials.
  for (const std::size_t spares : {std::size_t{0}, std::size_t{1}}) {
    Tally total;
    for (const IdentityCell& cell : kCells) {
      const Tally t = replayCell(cell, "hba-paper", spares);
      EXPECT_GT(t.rescues, 0u) << cell.circuit << " must reach the rescue";
      total.promotions += t.promotions;
      total.partials += t.partials;
    }
    EXPECT_GT(total.promotions, 0u) << "no sample reached the promote branch";
    EXPECT_GT(total.partials, 0u);
  }
}

}  // namespace
}  // namespace mcx
