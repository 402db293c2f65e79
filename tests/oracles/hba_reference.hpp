// Test oracle: the HybridMapper (HBA) as first written, with per-attempt
// allocations and a comparison sort of the product rows. The library's
// HybridMapper must return exactly its verdicts, row assignments and
// backtrack counts.
#pragma once

#include <algorithm>
#include <bit>
#include <numeric>
#include <span>
#include <vector>

#include "map/hybrid_mapper.hpp"
#include "map/matching.hpp"
#include "util/error.hpp"

namespace mcx::reference {

namespace detail {

constexpr std::size_t kNone = MappingResult::kUnassigned;
using Word = BitMatrix::Word;
constexpr std::size_t kWordBits = BitMatrix::kWordBits;

/// Lowest set bit of (candidate row words & mask words), or kNone.
inline std::size_t firstBit(std::span<const Word> row, const std::vector<Word>& mask) {
  for (std::size_t w = 0; w < row.size(); ++w) {
    const Word bits = row[w] & mask[w];
    if (bits != 0) return w * kWordBits + static_cast<std::size_t>(std::countr_zero(bits));
  }
  return kNone;
}

/// One full HBA attempt (phase 1 greedy + one-level backtracking over
/// @p order, phase 2 Hopcroft-Karp output assignment) on the precomputed
/// candidate adjacency. Backtrack repairs are accumulated into @p result;
/// on success the assignment is stored and result.success set.
inline bool attemptMapping(const FunctionMatrix& fm, const BitMatrix& adjacency,
                           const std::vector<std::size_t>& order, bool backtracking,
                           MappingResult& result) {
  const std::size_t N = adjacency.cols();

  std::vector<std::size_t> fmToCm(fm.rows(), kNone);
  std::vector<std::size_t> cmOwner(N, kNone);

  // Unmatched CM rows as a bitmask: greedy placement scans candidate-row
  // words AND free words instead of testing CM rows one by one.
  const std::size_t maskWords = (N + kWordBits - 1) / kWordBits;
  std::vector<Word> free(maskWords, ~Word{0});
  if (N % kWordBits != 0) free[maskWords - 1] = (Word{1} << (N % kWordBits)) - 1;
  const auto take = [&](std::size_t t, std::size_t owner) {
    free[t / kWordBits] &= ~(Word{1} << (t % kWordBits));
    cmOwner[t] = owner;
    fmToCm[owner] = t;
  };

  // Phase 1: greedy matching of minterm rows with one-level backtracking.
  for (const std::size_t i : order) {
    const auto row = adjacency.rowWords(i);
    std::size_t t = firstBit(row, free);
    if (t != kNone) {
      take(t, i);
      continue;
    }
    bool placed = false;
    if (backtracking) {
      // Consider matched CM rows top to bottom; try to relocate their owner.
      for (std::size_t w = 0; w < row.size() && !placed; ++w) {
        Word occupied = row[w] & ~free[w];
        while (occupied != 0 && !placed) {
          t = w * kWordBits + static_cast<std::size_t>(std::countr_zero(occupied));
          occupied &= occupied - 1;
          ++result.backtracks;
          const std::size_t j = cmOwner[t];
          const std::size_t u = firstBit(adjacency.rowWords(j), free);
          if (u != kNone) {
            // Relocate j to u, place i on t.
            take(u, j);
            take(t, i);
            placed = true;
          }
        }
      }
    }
    if (!placed) return false;  // no possible row matching in this order
  }

  // Phase 2: exact assignment of output rows onto unmatched CM rows —
  // pure feasibility, so Hopcroft-Karp on the sub-adjacency replaces the
  // zero-cost Munkres run.
  std::vector<std::size_t> fmo(fm.numOutputRows());
  for (std::size_t o = 0; o < fmo.size(); ++o) fmo[o] = fm.rowOfOutput(o);
  std::vector<std::size_t> cmu;
  cmu.reserve(N - order.size());
  for (std::size_t t = 0; t < N; ++t)
    if (cmOwner[t] == kNone) cmu.push_back(t);
  if (cmu.size() < fmo.size()) return false;

  BitMatrix sub(fmo.size(), cmu.size());
  for (std::size_t o = 0; o < fmo.size(); ++o)
    for (std::size_t k = 0; k < cmu.size(); ++k)
      if (adjacency.test(fmo[o], cmu[k])) sub.set(o, k);

  const FeasibleAssignment assignment = solveFeasibleAssignment(sub);
  if (!assignment.success) return false;

  for (std::size_t o = 0; o < fmo.size(); ++o) fmToCm[fmo[o]] = cmu[assignment.assignment[o]];
  result.rowAssignment = std::move(fmToCm);
  result.success = true;
  return true;
}

}  // namespace detail

/// HybridMapper(opts).map(fm, cm, ctx) as first written.
inline MappingResult hbaMap(const HybridMapperOptions& opts, const FunctionMatrix& fm,
                            const BitMatrix& cm, MappingContext& ctx) {
  MCX_REQUIRE(fm.cols() == cm.cols(), "HybridMapper: column count mismatch");
  MappingResult result;
  if (fm.rows() > cm.rows()) return result;

  const std::size_t P = fm.numProductRows();

  // One adjacency precompute serves the degree check, both phases, and the
  // backtracking probes (O(1) bit tests afterwards), built in the
  // context's reused buffers.
  const BitMatrix& adjacency = ctx.candidateAdjacency(fm.bits(), cm);
  std::vector<std::size_t> candidates(fm.rows());
  for (std::size_t r = 0; r < fm.rows(); ++r) {
    candidates[r] = adjacency.rowCount(r);
    if (candidates[r] == 0) return result;  // unmappable row: fail before solving
  }

  std::vector<std::size_t> order(P);
  std::iota(order.begin(), order.end(), std::size_t{0});

  if (!opts.sortByCandidates) {
    detail::attemptMapping(fm, adjacency, order, opts.backtracking, result);
    return result;
  }

  // Most-constrained rows first (ties broken by index, so equal-degree rows
  // keep the paper's top-to-bottom order — same order a stable sort gives,
  // without stable_sort's per-call buffer allocation): they have the fewest
  // escape hatches, and placing them early slashes the backtracking
  // repairs. When this order dead-ends, fall back to the paper's
  // top-to-bottom order — the two greedy orders fail on different
  // instances, so the success set is the union of both and never below the
  // paper's.
  std::vector<std::size_t> sorted = order;
  std::sort(sorted.begin(), sorted.end(), [&](std::size_t a, std::size_t b) {
    return candidates[a] != candidates[b] ? candidates[a] < candidates[b] : a < b;
  });
  if (detail::attemptMapping(fm, adjacency, sorted, opts.backtracking, result)) return result;
  if (sorted != order) detail::attemptMapping(fm, adjacency, order, opts.backtracking, result);
  return result;
}

}  // namespace mcx::reference
