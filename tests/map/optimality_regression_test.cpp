// Regression pin against the committed BENCH_optimality.json: the
// ablation-optimality artifact must stay reproducible (same seed and
// samples -> same per-cell counts), contradiction-free, agree with the
// paper's Munkres EA sample by sample, and keep at least one workload with
// a nonzero heuristic-vs-exact gap.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <vector>

#include "circuit/cache.hpp"
#include "map/registry.hpp"
#include "mc/executor.hpp"
#include "scenario/defect_model.hpp"
#include "scenario/spec.hpp"

#ifndef MCX_REPO_ROOT
#error "MCX_REPO_ROOT must point at the repository root (set by CMake)"
#endif

namespace mcx {
namespace {

SpecValue loadCommitted() {
  std::ifstream file(std::string(MCX_REPO_ROOT) + "/BENCH_optimality.json");
  EXPECT_TRUE(file.good()) << "committed BENCH_optimality.json not found";
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return parseSpec(buffer.str());
}

TEST(OptimalityRegressionTest, CommittedArtifactIsSoundAndHasAGap) {
  const SpecValue doc = loadCommitted();
  ASSERT_TRUE(doc.isObject());
  EXPECT_EQ(doc.numberOr("total_contradictions", -1), 0.0)
      << "a committed heuristic success was on an exactly unmappable sample";
  EXPECT_EQ(doc.numberOr("exact_mismatches", -1), 0.0)
      << "committed Hopcroft-Karp and Munkres verdicts disagreed";
  EXPECT_GE(doc.numberOr("nonzero_gap_cells", 0), 1.0)
      << "the artifact must exhibit at least one workload with a real gap";

  const SpecValue* cells = doc.find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_TRUE(cells->isArray());
  EXPECT_EQ(cells->array.size(), 6u) << "2 circuits x 3 defect rates";
  for (const SpecValue& cell : cells->array) {
    EXPECT_EQ(cell.numberOr("munkres_mismatches", -1), 0.0);
    const SpecValue* mappers = cell.find("mappers");
    ASSERT_NE(mappers, nullptr);
    EXPECT_EQ(mappers->array.size(), 3u);
    for (const SpecValue& m : mappers->array)
      EXPECT_EQ(m.numberOr("contradictions", -1), 0.0) << m.stringOr("name", "?");
  }
}

TEST(OptimalityRegressionTest, RerunReproducesCommittedRd53Cell) {
  const SpecValue doc = loadCommitted();
  ASSERT_TRUE(doc.isObject());
  const auto samples = static_cast<std::size_t>(doc.numberOr("samples", 0));
  const auto seed = static_cast<std::uint64_t>(doc.numberOr("seed", 0));
  ASSERT_GT(samples, 0u);

  // The committed rd53 @ 5% cell pins the full chain — synthesis -> defect
  // streams -> candidate adjacency -> Hopcroft-Karp, cross-checked against
  // the paper's Munkres EA -> registry-built heuristics.
  const SpecValue* cells = doc.find("cells");
  ASSERT_NE(cells, nullptr);
  const SpecValue* committed = nullptr;
  for (const SpecValue& cell : cells->array)
    if (cell.stringOr("circuit", "") == "rd53" && cell.numberOr("rate", 0.0) == 0.05)
      committed = &cell;
  ASSERT_NE(committed, nullptr) << "committed rd53 @ 5% cell missing";
  const SpecValue* mappers = committed->find("mappers");
  ASSERT_NE(mappers, nullptr);
  ASSERT_EQ(mappers->array.size(), 3u);

  const std::shared_ptr<const Circuit> circuit = compileCircuit("rd53");
  const IidBernoulli defects(0.05);

  const auto fastEa = makeMapper("fast-ea");
  const auto munkres = makeMapper("ea-munkres");
  std::vector<std::shared_ptr<const IMapper>> heuristics;
  for (const SpecValue& m : mappers->array)
    heuristics.push_back(makeMapper(m.stringOr("name", "")));
  std::size_t exactOk = 0;
  std::size_t munkresMismatches = 0;
  std::vector<std::size_t> heurOk(heuristics.size(), 0);
  std::vector<std::size_t> contradictions(heuristics.size(), 0);
  // Sample s is drawn from splitSampleStreams(seed, samples)[s], the stream
  // the bench's engine runs use for it.
  for (Rng rng : splitSampleStreams(seed, samples)) {
    const BitMatrix cm =
        crossbarMatrix(defects.sample(circuit->fm.rows(), circuit->fm.cols(), rng));
    const bool exact = fastEa->map(circuit->fm, cm).success;
    if (munkres->map(circuit->fm, cm).success != exact) ++munkresMismatches;
    if (exact) ++exactOk;
    for (std::size_t h = 0; h < heuristics.size(); ++h) {
      const bool ok = heuristics[h]->map(circuit->fm, cm).success;
      if (ok) ++heurOk[h];
      if (ok && !exact) ++contradictions[h];
    }
  }

  EXPECT_EQ(exactOk, static_cast<std::size_t>(committed->numberOr("exact_successes", -1)));
  EXPECT_EQ(munkresMismatches, 0u);
  for (std::size_t h = 0; h < heuristics.size(); ++h) {
    const SpecValue& m = mappers->array[h];
    EXPECT_EQ(heurOk[h], static_cast<std::size_t>(m.numberOr("successes", -1)))
        << m.stringOr("name", "?");
    EXPECT_EQ(exactOk - heurOk[h], static_cast<std::size_t>(m.numberOr("gap", -1)))
        << m.stringOr("name", "?");
    EXPECT_EQ(contradictions[h], 0u) << m.stringOr("name", "?");
  }
}

}  // namespace
}  // namespace mcx
