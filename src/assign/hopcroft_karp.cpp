#include "assign/hopcroft_karp.hpp"

#include <bit>
#include <limits>
#include <vector>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace mcx {

BipartiteGraph::BipartiteGraph(std::size_t numLeft, std::size_t numRight)
    : numRight_(numRight), adj_(numLeft) {}

void BipartiteGraph::addEdge(std::size_t left, std::size_t right) {
  MCX_REQUIRE(left < adj_.size() && right < numRight_, "BipartiteGraph::addEdge out of range");
  adj_[left].push_back(right);
}

const std::vector<std::size_t>& BipartiteGraph::neighbors(std::size_t left) const {
  MCX_REQUIRE(left < adj_.size(), "BipartiteGraph::neighbors out of range");
  return adj_[left];
}

namespace {

constexpr std::size_t kInf = std::numeric_limits<std::size_t>::max();

using Word = BitMatrix::Word;

// Adjacency-list view of a BipartiteGraph.
struct ListGraphView {
  const BipartiteGraph& g;

  std::size_t numLeft() const { return g.numLeft(); }
  std::size_t numRight() const { return g.numRight(); }

  template <typename Fn>
  bool forEachNeighbor(std::size_t l, Fn&& fn) const {
    for (const std::size_t r : g.neighbors(l)) {
      if (fn(r)) return true;
    }
    return false;
  }

  /// Neighbors of l still set in @p unseen, in list order; each is cleared
  /// before fn sees it.
  template <typename Fn>
  void forEachUnseenNeighbor(std::size_t l, std::vector<Word>& unseen, Fn&& fn) const {
    for (const std::size_t r : g.neighbors(l)) {
      Word& w = unseen[r / BitMatrix::kWordBits];
      const Word bit = Word{1} << (r % BitMatrix::kWordBits);
      if ((w & bit) == 0) continue;
      w &= ~bit;
      fn(r);
    }
  }

  /// Greedy maximal seed: every left takes its first unmatched neighbor.
  std::size_t greedySeed(std::vector<std::size_t>& matchL,
                         std::vector<std::size_t>& matchR) const {
    std::size_t placed = 0;
    for (std::size_t l = 0; l < g.numLeft(); ++l) {
      for (const std::size_t r : g.neighbors(l)) {
        if (matchR[r] != MatchingResult::kUnmatched) continue;
        matchL[l] = r;
        matchR[r] = l;
        ++placed;
        break;
      }
    }
    return placed;
  }
};

// Bit-matrix view: each set bit of row l is an edge l -> (word * 64 + bit),
// walked word-at-a-time with countr_zero — no per-edge adjacency structure.
struct BitGraphView {
  const BitMatrix& adj;

  std::size_t numLeft() const { return adj.rows(); }
  std::size_t numRight() const { return adj.cols(); }

  template <typename Fn>
  bool forEachNeighbor(std::size_t l, Fn&& fn) const {
    const auto words = adj.rowWords(l);
    for (std::size_t i = 0; i < words.size(); ++i) {
      BitMatrix::Word bits = words[i];
      while (bits != 0) {
        const std::size_t r = i * BitMatrix::kWordBits +
                              static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        if (fn(r)) return true;
      }
    }
    return false;
  }

  /// Neighbors of l still set in @p unseen, ascending: each row word is
  /// ANDed with the mask and the survivors cleared from it, so rights seen
  /// before are skipped 64 at a time.
  template <typename Fn>
  void forEachUnseenNeighbor(std::size_t l, std::vector<Word>& unseen, Fn&& fn) const {
    const auto words = adj.rowWords(l);
    for (std::size_t i = 0; i < words.size(); ++i) {
      Word bits = words[i] & unseen[i];
      if (bits == 0) continue;
      unseen[i] &= ~bits;
      while (bits != 0) {
        fn(i * BitMatrix::kWordBits + static_cast<std::size_t>(std::countr_zero(bits)));
        bits &= bits - 1;
      }
    }
  }

  /// Greedy maximal seed, word-parallel: candidate words are ANDed with a
  /// free-rights mask, so already-taken neighbors are skipped 64 at a time
  /// instead of bit by bit (they dominate once the matching fills up).
  std::size_t greedySeed(std::vector<std::size_t>& matchL,
                         std::vector<std::size_t>& matchR) const {
    if (adj.rows() == 0 || adj.cols() == 0) return 0;
    const std::size_t words = adj.rowWords(0).size();
    std::vector<Word> free(words, ~Word{0});
    free[words - 1] = BitMatrix::tailMask(adj.cols());
    std::size_t placed = 0;
    for (std::size_t l = 0; l < adj.rows(); ++l) {
      const auto row = adj.rowWords(l);
      for (std::size_t w = 0; w < words; ++w) {
        const Word cand = row[w] & free[w];
        if (cand == 0) continue;
        const std::size_t bit = static_cast<std::size_t>(std::countr_zero(cand));
        const std::size_t r = w * BitMatrix::kWordBits + bit;
        free[w] &= ~(Word{1} << bit);
        matchL[l] = r;
        matchR[r] = l;
        ++placed;
        break;
      }
    }
    return placed;
  }
};

// One Hopcroft-Karp engine for every graph representation: the Graph policy
// only supplies vertex counts and neighbor iteration.
template <typename Graph>
struct HkEngine {
  Graph g;
  std::vector<std::size_t> matchL, matchR, dist, queue;
  std::vector<Word> unseen;  ///< rights the current BFS phase has not reached

  explicit HkEngine(Graph graph)
      : g(graph),
        matchL(g.numLeft(), MatchingResult::kUnmatched),
        matchR(g.numRight(), MatchingResult::kUnmatched),
        dist(g.numLeft()) {}

  // Each right is visited once per phase. A matched right r leads only to
  // matchR[r], whose one matched edge is r, so its first visit is the one
  // that sets dist; a revisit could change nothing. The layering, hence
  // the DFS and the returned matching, equals that of a full edge scan.
  bool bfs() {
    // Flat FIFO (reused across phases): a std::queue would allocate a deque
    // chunk per phase, on the warm-started per-sample path.
    queue.clear();
    unseen.assign((g.numRight() + BitMatrix::kWordBits - 1) / BitMatrix::kWordBits, ~Word{0});
    std::size_t head = 0;
    for (std::size_t l = 0; l < g.numLeft(); ++l) {
      if (matchL[l] == MatchingResult::kUnmatched) {
        dist[l] = 0;
        queue.push_back(l);
      } else {
        dist[l] = kInf;
      }
    }
    bool foundAugmenting = false;
    while (head < queue.size()) {
      const std::size_t l = queue[head];
      ++head;
      g.forEachUnseenNeighbor(l, unseen, [&](std::size_t r) {
        const std::size_t next = matchR[r];
        if (next == MatchingResult::kUnmatched) {
          foundAugmenting = true;
        } else {
          dist[next] = dist[l] + 1;
          queue.push_back(next);
        }
      });
    }
    return foundAugmenting;
  }

  bool dfs(std::size_t l) {
    const bool augmented = g.forEachNeighbor(l, [&](std::size_t r) {
      const std::size_t next = matchR[r];
      if (next == MatchingResult::kUnmatched || (dist[next] == dist[l] + 1 && dfs(next))) {
        matchL[l] = r;
        matchR[r] = l;
        return true;
      }
      return false;
    });
    if (!augmented) dist[l] = kInf;
    return augmented;
  }

  MatchingResult run(bool warmStart = false) {
    MatchingResult result;
    std::size_t phases = 0;
    if (warmStart) {
      result.size = g.greedySeed(matchL, matchR);
      if (result.size == g.numLeft()) {  // perfect already: no phases needed
        recordHkProfile(warmStart, phases);
        result.matchOfLeft = std::move(matchL);
        return result;
      }
    }
    while (bfs()) {
      ++phases;
      for (std::size_t l = 0; l < g.numLeft(); ++l)
        if (matchL[l] == MatchingResult::kUnmatched && dfs(l)) ++result.size;
    }
    recordHkProfile(warmStart, phases);
    result.matchOfLeft = std::move(matchL);
    return result;
  }

  /// Warm-vs-cold phase telemetry. A warm HK run on a bw multi-level
  /// sample averages ~2µs (~1µs when the greedy seed is already perfect),
  /// so even a registry-counter increment is measurable — everything hides
  /// behind the profilingArmed() relaxed-load gate (one branch disarmed).
  static void recordHkProfile(bool warmStart, std::size_t phases) {
    if (!obs::profilingArmed()) return;
    static obs::Counter& warmRuns = obs::Registry::global().counter("hk.warm_runs");
    static obs::Counter& coldRuns = obs::Registry::global().counter("hk.cold_runs");
    static obs::Counter& warmPhases = obs::Registry::global().counter("hk.warm_phases");
    static obs::Counter& coldPhases = obs::Registry::global().counter("hk.cold_phases");
    if (warmStart) {
      warmRuns.add(1);
      warmPhases.add(phases);
    } else {
      coldRuns.add(1);
      coldPhases.add(phases);
    }
  }
};

}  // namespace

MatchingResult hopcroftKarp(const BipartiteGraph& graph, bool warmStart) {
  return HkEngine<ListGraphView>(ListGraphView{graph}).run(warmStart);
}

MatchingResult hopcroftKarp(const BitMatrix& adjacency, bool warmStart) {
  return HkEngine<BitGraphView>(BitGraphView{adjacency}).run(warmStart);
}

}  // namespace mcx
