// Matching identity of the bit-matrix Hopcroft-Karp: its word-parallel BFS
// (each right visited once per phase) must return exactly the matching of a
// textbook implementation that scans every edge bit by bit, with the same
// greedy seed and the same DFS.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "assign/hopcroft_karp.hpp"
#include "circuit/cache.hpp"
#include "map/matching.hpp"
#include "scenario/registry.hpp"
#include "util/rng.hpp"
#include "xbar/defects.hpp"
#include "xbar/multilevel_layout.hpp"

namespace mcx {
namespace {

struct TextbookHk {
  static constexpr std::size_t kFree = MatchingResult::kUnmatched;
  static constexpr std::size_t kInf = std::numeric_limits<std::size_t>::max();
  const BitMatrix& adj;
  std::vector<std::size_t> matchL, matchR, dist;

  bool bfs() {
    std::vector<std::size_t> queue;
    for (std::size_t l = 0; l < adj.rows(); ++l) {
      dist[l] = matchL[l] == kFree ? 0 : kInf;
      if (dist[l] == 0) queue.push_back(l);
    }
    bool found = false;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::size_t l = queue[head];
      for (std::size_t r = 0; r < adj.cols(); ++r) {
        if (!adj.test(l, r)) continue;
        if (matchR[r] == kFree) {
          found = true;
        } else if (dist[matchR[r]] == kInf) {
          dist[matchR[r]] = dist[l] + 1;
          queue.push_back(matchR[r]);
        }
      }
    }
    return found;
  }

  bool dfs(std::size_t l) {
    for (std::size_t r = 0; r < adj.cols(); ++r) {
      if (!adj.test(l, r)) continue;
      const std::size_t next = matchR[r];
      if (next == kFree || (dist[next] == dist[l] + 1 && dfs(next))) {
        matchL[l] = r;
        matchR[r] = l;
        return true;
      }
    }
    dist[l] = kInf;
    return false;
  }

  MatchingResult run() {
    matchL.assign(adj.rows(), kFree);
    matchR.assign(adj.cols(), kFree);
    dist.assign(adj.rows(), 0);
    MatchingResult result;
    for (std::size_t l = 0; l < adj.rows(); ++l) {
      for (std::size_t r = 0; r < adj.cols(); ++r) {
        if (!adj.test(l, r) || matchR[r] != kFree) continue;
        matchL[l] = r;
        matchR[r] = l;
        ++result.size;
        break;
      }
    }
    while (bfs())
      for (std::size_t l = 0; l < adj.rows(); ++l)
        if (matchL[l] == kFree && dfs(l)) ++result.size;
    result.matchOfLeft = matchL;
    return result;
  }
};

void expectSameMatching(const BitMatrix& adj, const std::string& label) {
  SCOPED_TRACE(label);
  const MatchingResult want = TextbookHk{adj, {}, {}, {}}.run();
  const MatchingResult got = hopcroftKarp(adj);
  EXPECT_EQ(got.size, want.size);
  EXPECT_EQ(got.matchOfLeft, want.matchOfLeft);
}

TEST(HopcroftKarpIdentity, MatchesTextbookOnRandomRectangularAdjacencies) {
  Rng rng(0x4b0b);
  const std::size_t shapes[][2] = {{5, 7}, {37, 41}, {63, 65}, {70, 100}, {100, 70}, {129, 191}};
  for (const auto& shape : shapes) {
    for (const double density : {0.05, 0.2, 0.5, 0.8, 0.95}) {
      for (int trial = 0; trial < 4; ++trial) {
        BitMatrix adj(shape[0], shape[1]);
        for (std::size_t l = 0; l < shape[0]; ++l)
          for (std::size_t r = 0; r < shape[1]; ++r)
            if (rng.bernoulli(density)) adj.set(l, r);
        expectSameMatching(adj, std::to_string(shape[0]) + "x" + std::to_string(shape[1]) +
                                    " p=" + std::to_string(density));
      }
    }
  }
}

TEST(HopcroftKarpIdentity, MatchesTextbookOnDegenerateAndWordBoundaryShapes) {
  // Empty sides, single words, exact word boundaries and one-bit tail words;
  // every shape with more than one row also gets a row with no candidate.
  Rng rng(0xed6e);
  const std::size_t shapes[][2] = {{0, 0},   {0, 5},    {5, 0},   {1, 1},  {1, 64},
                                   {64, 64}, {64, 128}, {128, 64}, {65, 64}, {3, 129}};
  for (const auto& shape : shapes) {
    for (const double density : {0.0, 0.1, 0.5, 1.0}) {
      BitMatrix adj(shape[0], shape[1]);
      for (std::size_t l = 0; l < shape[0]; ++l)
        for (std::size_t r = 0; r < shape[1]; ++r)
          if (rng.bernoulli(density)) adj.set(l, r);
      if (shape[0] > 1) adj.setRow(rng.uniformInt(0, shape[0] - 1), false);
      expectSameMatching(adj, std::to_string(shape[0]) + "x" + std::to_string(shape[1]) +
                                  " p=" + std::to_string(density));
    }
  }
}

TEST(HopcroftKarpIdentity, MatchesTextbookOnBwMultiLevelSamples) {
  const std::shared_ptr<const Circuit> bw =
      compileCircuit(R"({"circuit":"bw","realize":"multilevel"})");
  const MultiLevelLayout& layout = *bw->layout;
  const auto model = makeScenario("paper-iid", 0.10);
  Rng rng(0xb3);
  DefectMap defects;
  for (int s = 0; s < 200; ++s) {
    model->generate(layout.fm.rows(), layout.fm.cols(), rng, defects);
    expectSameMatching(buildCandidateAdjacency(layout.fm.bits(), crossbarMatrix(defects)),
                       "bw sample " + std::to_string(s));
    if (::testing::Test::HasFailure()) break;
  }
}

BitMatrix randomAdjacency(std::size_t rows, std::size_t cols, double density, Rng& rng) {
  BitMatrix adj(rows, cols);
  for (std::size_t l = 0; l < rows; ++l)
    for (std::size_t r = 0; r < cols; ++r)
      if (rng.bernoulli(density)) adj.set(l, r);
  return adj;
}

TEST(HopcroftKarpIdentity, MatchesTextbookOnAlu4ScaleShapes) {
  // alu4's 583 FM rows on a balanced crossbar and on 17 spare rows, at the
  // adjacency density of alu4 at 15% stuck-open.
  Rng rng(0xa1a4);
  for (const std::size_t cols : {583, 600}) {
    for (int trial = 0; trial < 6; ++trial) {
      expectSameMatching(randomAdjacency(583, cols, 0.27, rng),
                         "583x" + std::to_string(cols) + " trial " + std::to_string(trial));
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(HopcroftKarpIdentity, MatchesTextbookOnAlu4Samples) {
  // Adjacencies drawn the engine's way for the mc-twolevel-mixed alu4 cells:
  // paper-iid at 15%, the crossbar matrix, the candidate-adjacency kernel.
  const std::shared_ptr<const Circuit> alu4 = compileCircuit("alu4");
  const FunctionMatrix& fm = alu4->fm;
  const auto model = makeScenario("paper-iid", 0.15);
  Rng rng(0xa4);
  DefectMap defects;
  for (int s = 0; s < 24; ++s) {
    model->generate(fm.rows(), fm.cols(), rng, defects);
    expectSameMatching(buildCandidateAdjacency(fm.bits(), crossbarMatrix(defects)),
                       "alu4 sample " + std::to_string(s));
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(HopcroftKarpIdentity, ReusedThreadBuffersCarryNothingBetweenCalls) {
  // One thread runs a large, a small and again a large adjacency: stale
  // per-thread buffers (a longer match table, leftover seen or taken
  // rights, queued rows) would change the second large matching.
  Rng rng(0x5eed);
  const BitMatrix large = randomAdjacency(583, 600, 0.27, rng);
  const BitMatrix sparse = randomAdjacency(583, 583, 0.004, rng);
  const BitMatrix small = randomAdjacency(5, 7, 0.5, rng);
  const BitMatrix empty(3, 0);
  expectSameMatching(large, "large");
  expectSameMatching(small, "small after large");
  expectSameMatching(empty, "no columns after small");
  expectSameMatching(large, "large after small");
  expectSameMatching(sparse, "sparse after large");
  expectSameMatching(small, "small after sparse");
  expectSameMatching(sparse, "sparse after small");
}

}  // namespace
}  // namespace mcx
