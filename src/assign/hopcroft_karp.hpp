// Hopcroft-Karp maximum bipartite matching over a bit-matrix adjacency.
//
// The paper decides mapping validity through a zero-cost Munkres assignment
// (O(n^3)). Validity is really a perfect-matching question, which
// Hopcroft-Karp answers in O(E sqrt(V)) — the one exact verdict behind
// solveFeasibleAssignment (EA, fast-ea and HBA's second phase); Munkres stays
// as its cross-check.
#pragma once

#include <cstddef>
#include <vector>

#include "util/bit_matrix.hpp"

namespace mcx {

struct MatchingResult {
  /// Size of the maximum matching.
  std::size_t size = 0;
  /// matchOfLeft[l] = matched right vertex or kUnmatched.
  std::vector<std::size_t> matchOfLeft;
  static constexpr std::size_t kUnmatched = static_cast<std::size_t>(-1);

  bool perfectForLeft(std::size_t numLeft) const { return size == numLeft; }
};

/// Maximum matching on a bit-matrix adjacency (left vertex = row, right
/// vertex = column). Neighbor lists are walked word-at-a-time with
/// countr_zero, so no per-edge adjacency structure is ever materialized.
///
/// The phases are seeded with a greedy maximal matching — each left vertex
/// takes its first free neighbor — so augmentation only runs for the
/// leftovers. On the near-clean crossbar adjacencies of the Monte Carlo
/// sweeps the greedy pass places almost every FM row (a defect-free CM row
/// accepts any FM row) and the BFS/DFS phases merely repair around the
/// defective rows. Hopcroft-Karp is maximum from any initial matching, so
/// the seed changes which maximum matching is returned, never its size.
///
/// Three shortcuts leave the returned matching unchanged: each greedy scan
/// starts at the first word that still has a free right, a BFS phase ends
/// once every right has been seen, and the working buffers are per thread,
/// reused across calls, so a call allocates only the returned matching.
MatchingResult hopcroftKarp(const BitMatrix& adjacency);

}  // namespace mcx
