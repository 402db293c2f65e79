#include "assign/hopcroft_karp.hpp"

#include <bit>
#include <limits>
#include <utility>
#include <vector>

namespace mcx {

namespace {

constexpr std::size_t kInf = std::numeric_limits<std::size_t>::max();
constexpr std::size_t kFree = MatchingResult::kUnmatched;

using Word = BitMatrix::Word;

// Each set bit of row l is an edge l -> (word * 64 + bit), walked
// word-at-a-time with countr_zero — no per-edge adjacency structure.
struct HkEngine {
  const BitMatrix& adj;
  std::vector<std::size_t> matchL, matchR, dist, queue;
  std::vector<Word> unseen;  ///< rights the current BFS phase has not reached

  explicit HkEngine(const BitMatrix& adjacency)
      : adj(adjacency),
        matchL(adj.rows(), kFree),
        matchR(adj.cols(), kFree),
        dist(adj.rows()) {}

  /// Greedy maximal seed, word-parallel: candidate words are ANDed with a
  /// free-rights mask, so already-taken neighbors are skipped 64 at a time
  /// instead of bit by bit (they dominate once the matching fills up).
  std::size_t greedySeed() {
    if (adj.empty()) return 0;
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

  // Each right is visited once per phase: each row word is ANDed with the
  // unseen mask and the survivors cleared from it, so rights seen before are
  // skipped 64 at a time. A matched right r leads only to matchR[r], whose
  // one matched edge is r, so its first visit is the one that sets dist; a
  // revisit could change nothing. The layering, hence the DFS and the
  // returned matching, equals that of a full edge scan.
  bool bfs() {
    // Flat FIFO (reused across phases): a std::queue would allocate a deque
    // chunk per phase, on the per-sample path.
    queue.clear();
    unseen.assign((adj.cols() + BitMatrix::kWordBits - 1) / BitMatrix::kWordBits, ~Word{0});
    for (std::size_t l = 0; l < adj.rows(); ++l) {
      if (matchL[l] == kFree) {
        dist[l] = 0;
        queue.push_back(l);
      } else {
        dist[l] = kInf;
      }
    }
    bool foundAugmenting = false;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::size_t l = queue[head];
      const auto words = adj.rowWords(l);
      for (std::size_t i = 0; i < words.size(); ++i) {
        Word bits = words[i] & unseen[i];
        if (bits == 0) continue;
        unseen[i] &= ~bits;
        for (; bits != 0; bits &= bits - 1) {
          const std::size_t next =
              matchR[i * BitMatrix::kWordBits + static_cast<std::size_t>(std::countr_zero(bits))];
          if (next == kFree) {
            foundAugmenting = true;
          } else {
            dist[next] = dist[l] + 1;
            queue.push_back(next);
          }
        }
      }
    }
    return foundAugmenting;
  }

  /// Neighbors of l in ascending order; the first free right, or the first
  /// matched one whose partner augments one layer deeper, takes l.
  bool dfs(std::size_t l) {
    const auto words = adj.rowWords(l);
    for (std::size_t i = 0; i < words.size(); ++i) {
      for (Word bits = words[i]; bits != 0; bits &= bits - 1) {
        const std::size_t r =
            i * BitMatrix::kWordBits + static_cast<std::size_t>(std::countr_zero(bits));
        const std::size_t next = matchR[r];
        if (next == kFree || (dist[next] == dist[l] + 1 && dfs(next))) {
          matchL[l] = r;
          matchR[r] = l;
          return true;
        }
      }
    }
    dist[l] = kInf;
    return false;
  }

  MatchingResult run() {
    MatchingResult result;
    result.size = greedySeed();
    // A perfect seed needs no phases.
    while (result.size < adj.rows() && bfs()) {
      for (std::size_t l = 0; l < adj.rows(); ++l)
        if (matchL[l] == kFree && dfs(l)) ++result.size;
    }
    result.matchOfLeft = std::move(matchL);
    return result;
  }
};

}  // namespace

MatchingResult hopcroftKarp(const BitMatrix& adjacency) { return HkEngine(adjacency).run(); }

}  // namespace mcx
