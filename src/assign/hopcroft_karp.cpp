#include "assign/hopcroft_karp.hpp"

#include <bit>
#include <limits>
#include <vector>

namespace mcx {

namespace {

constexpr std::size_t kInf = std::numeric_limits<std::size_t>::max();
constexpr std::size_t kFree = MatchingResult::kUnmatched;

using Word = BitMatrix::Word;

// Per-thread buffers, reused across calls so a verdict allocates only the
// returned matching; their contents mean nothing between calls.
struct HkScratch {
  std::vector<std::size_t> matchR, dist, queue;
  std::vector<Word> free;    ///< greedy seed: rights not yet taken
  std::vector<Word> unseen;  ///< rights the current BFS phase has not reached
};
thread_local HkScratch hkScratch;

// Each set bit of row l is an edge l -> (word * 64 + bit), walked
// word-at-a-time with countr_zero — no per-edge adjacency structure.
struct HkEngine {
  const BitMatrix& adj;
  const std::size_t words;  ///< words per adjacency row
  std::vector<std::size_t>& matchL;
  HkScratch& s;

  HkEngine(const BitMatrix& adjacency, std::vector<std::size_t>& matchOfLeft)
      : adj(adjacency),
        words((adjacency.cols() + BitMatrix::kWordBits - 1) / BitMatrix::kWordBits),
        matchL(matchOfLeft),
        s(hkScratch) {
    matchL.assign(adj.rows(), kFree);
    s.matchR.assign(adj.cols(), kFree);
    s.dist.resize(adj.rows());
  }

  /// Greedy maximal seed, word-parallel: candidate words are ANDed with a
  /// free-rights mask, so already-taken neighbors are skipped 64 at a time
  /// instead of bit by bit (they dominate once the matching fills up). Each
  /// scan starts at the first word that still has a free right: the words
  /// before it could only contribute zeros.
  std::size_t greedySeed() {
    if (adj.empty()) return 0;
    std::vector<Word>& free = s.free;
    free.assign(words, ~Word{0});
    free[words - 1] = BitMatrix::tailMask(adj.cols());
    std::size_t first = 0;  // free[w] == 0 for every w < first
    std::size_t placed = 0;
    for (std::size_t l = 0; l < adj.rows() && first < words; ++l) {
      const Word* const row = adj.rowWords(l).data();
      for (std::size_t w = first; w < words; ++w) {
        const Word cand = row[w] & free[w];
        if (cand == 0) continue;
        const std::size_t bit = static_cast<std::size_t>(std::countr_zero(cand));
        const std::size_t r = w * BitMatrix::kWordBits + bit;
        free[w] &= ~(Word{1} << bit);
        matchL[l] = r;
        s.matchR[r] = l;
        ++placed;
        while (first < words && free[first] == 0) ++first;
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
  // returned matching, equals that of a full edge scan. For the same reason
  // the phase ends once every right has been seen: the rows still queued
  // could reach nothing new.
  bool bfs() {
    std::vector<std::size_t>& queue = s.queue;
    std::vector<Word>& unseen = s.unseen;
    queue.clear();
    unseen.assign(words, ~Word{0});
    for (std::size_t l = 0; l < adj.rows(); ++l) {
      if (matchL[l] == kFree) {
        s.dist[l] = 0;
        queue.push_back(l);
      } else {
        s.dist[l] = kInf;
      }
    }
    bool foundAugmenting = false;
    std::size_t unseenCount = adj.cols();  // padding bits are never set
    for (std::size_t head = 0; head < queue.size() && unseenCount > 0; ++head) {
      const std::size_t l = queue[head];
      const Word* const row = adj.rowWords(l).data();
      for (std::size_t i = 0; i < words; ++i) {
        Word bits = row[i] & unseen[i];
        if (bits == 0) continue;
        unseen[i] &= ~bits;
        unseenCount -= static_cast<std::size_t>(std::popcount(bits));
        for (; bits != 0; bits &= bits - 1) {
          const std::size_t next =
              s.matchR[i * BitMatrix::kWordBits + static_cast<std::size_t>(std::countr_zero(bits))];
          if (next == kFree) {
            foundAugmenting = true;
          } else {
            s.dist[next] = s.dist[l] + 1;
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
    const Word* const row = adj.rowWords(l).data();
    for (std::size_t i = 0; i < words; ++i) {
      for (Word bits = row[i]; bits != 0; bits &= bits - 1) {
        const std::size_t r =
            i * BitMatrix::kWordBits + static_cast<std::size_t>(std::countr_zero(bits));
        const std::size_t next = s.matchR[r];
        if (next == kFree || (s.dist[next] == s.dist[l] + 1 && dfs(next))) {
          matchL[l] = r;
          s.matchR[r] = l;
          return true;
        }
      }
    }
    s.dist[l] = kInf;
    return false;
  }

  std::size_t run() {
    std::size_t size = greedySeed();
    // A perfect seed needs no phases.
    while (size < adj.rows() && bfs()) {
      for (std::size_t l = 0; l < adj.rows(); ++l)
        if (matchL[l] == kFree && dfs(l)) ++size;
    }
    return size;
  }
};

}  // namespace

MatchingResult hopcroftKarp(const BitMatrix& adjacency) {
  MatchingResult result;
  result.size = HkEngine(adjacency, result.matchOfLeft).run();
  return result;
}

}  // namespace mcx
