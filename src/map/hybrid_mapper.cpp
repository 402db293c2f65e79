#include "map/hybrid_mapper.hpp"

#include <bit>
#include <numeric>
#include <span>
#include <utility>

#include "util/error.hpp"

namespace mcx {

namespace {

constexpr std::size_t kNone = MappingResult::kUnassigned;
using Word = BitMatrix::Word;
constexpr std::size_t kWordBits = BitMatrix::kWordBits;

/// Lowest set bit of (candidate row words & mask words), or kNone, given
/// that mask words before @p from are zero.
std::size_t firstBit(std::span<const Word> row, const std::vector<Word>& mask, std::size_t from) {
  for (std::size_t w = from; w < row.size(); ++w) {
    const Word bits = row[w] & mask[w];
    if (bits != 0) return w * kWordBits + static_cast<std::size_t>(std::countr_zero(bits));
  }
  return kNone;
}

/// One full HBA attempt (phase 1 greedy + one-level backtracking over
/// s.order, phase 2 Hopcroft-Karp output assignment) on the precomputed
/// candidate adjacency, in the context's reused buffers. Backtrack repairs
/// are accumulated into @p result; on success the assignment is stored and
/// result.success set.
bool attemptMapping(const FunctionMatrix& fm, const BitMatrix& adjacency, bool backtracking,
                    MappingContext::HbaScratch& s, MappingResult& result) {
  const std::size_t N = adjacency.cols();

  std::vector<std::size_t>& fmToCm = s.fmToCm;
  std::vector<std::size_t>& cmOwner = s.cmOwner;
  fmToCm.assign(fm.rows(), kNone);
  cmOwner.assign(N, kNone);

  // Unmatched CM rows as a bitmask: greedy placement scans candidate-row
  // words AND free words instead of testing CM rows one by one.
  const std::size_t maskWords = (N + kWordBits - 1) / kWordBits;
  std::vector<Word>& free = s.free;
  free.assign(maskWords, ~Word{0});
  if (N % kWordBits != 0) free[maskWords - 1] = BitMatrix::tailMask(N);
  // Phase 1 never frees a CM row (a relocation moves j onto a free row and
  // hands its old row straight to i), so the first mask word with a free
  // row only moves right.
  std::size_t firstFree = 0;
  const auto take = [&](std::size_t t, std::size_t owner) {
    free[t / kWordBits] &= ~(Word{1} << (t % kWordBits));
    while (firstFree < maskWords && free[firstFree] == 0) ++firstFree;
    cmOwner[t] = owner;
    fmToCm[owner] = t;
  };

  // Phase 1: greedy matching of minterm rows with one-level backtracking.
  for (const std::size_t i : s.order) {
    const auto row = adjacency.rowWords(i);
    std::size_t t = firstBit(row, free, firstFree);
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
          const std::size_t u = firstBit(adjacency.rowWords(j), free, firstFree);
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

  // Phase 2: exact assignment of output rows onto the unmatched CM rows
  // (CMu) — pure feasibility, so Hopcroft-Karp on the sub-adjacency
  // replaces the zero-cost Munkres run. The sub-adjacency keeps the CM row
  // indices: each output row's words ANDed with the free mask. Hopcroft-Karp
  // only walks set bits, in ascending order, so the cleared columns change
  // nothing against the output x CMu matrix with CMu packed densely, and its
  // matching names the CM rows directly.
  const std::size_t outputs = fm.numOutputRows();
  BitMatrix& sub = s.sub;
  sub.reshape(outputs, N);
  for (std::size_t o = 0; o < outputs; ++o) {
    const Word* const src = adjacency.rowWords(fm.rowOfOutput(o)).data();
    Word* const dst = sub.rowWords(o).data();
    for (std::size_t w = 0; w < maskWords; ++w) dst[w] = src[w] & free[w];
  }
  const FeasibleAssignment assignment = solveFeasibleAssignment(sub);
  if (!assignment.success) return false;

  for (std::size_t o = 0; o < outputs; ++o) fmToCm[fm.rowOfOutput(o)] = assignment.assignment[o];
  result.rowAssignment.assign(fmToCm.begin(), fmToCm.end());
  result.success = true;
  return true;
}

}  // namespace

MappingResult HybridMapper::map(const FunctionMatrix& fm, const BitMatrix& cm,
                                MappingContext& ctx) const {
  MCX_REQUIRE(fm.cols() == cm.cols(), "HybridMapper: column count mismatch");
  MappingResult result;
  if (fm.rows() > cm.rows()) return result;

  const std::size_t P = fm.numProductRows();
  const std::size_t N = cm.rows();

  // One adjacency precompute serves the degree check, both phases, and the
  // backtracking probes (O(1) bit tests afterwards), built in the
  // context's reused buffers.
  const BitMatrix& adjacency = ctx.candidateAdjacency(fm.bits(), cm);
  MappingContext::HbaScratch& s = ctx.hbaScratch();
  // The degree check fills the counting sort's histogram of the product
  // rows' candidate counts on the way.
  std::vector<std::size_t>& candidates = s.candidates;
  std::vector<std::size_t>& buckets = s.buckets;
  candidates.resize(fm.rows());
  buckets.assign(N + 1, 0);
  for (std::size_t r = 0; r < fm.rows(); ++r) {
    const std::size_t count = adjacency.rowCount(r);
    if (count == 0) return result;  // unmappable row: fail before solving
    candidates[r] = count;
    if (r < P) ++buckets[count];
  }

  std::vector<std::size_t>& order = s.order;
  order.resize(P);
  if (!opts_.sortByCandidates) {
    std::iota(order.begin(), order.end(), std::size_t{0});
    attemptMapping(fm, adjacency, opts_.backtracking, s, result);
    return result;
  }

  // Most-constrained rows first, ties broken by index so that equal-degree
  // rows keep the paper's top-to-bottom order: they have the fewest escape
  // hatches, and placing them early slashes the backtracking repairs. The
  // counts lie in [1, N], so a stable counting sort yields this order in
  // O(P + N). When this order dead-ends, fall back to the paper's
  // top-to-bottom order — the two greedy orders fail on different
  // instances, so the success set is the union of both and never below the
  // paper's.
  for (std::size_t c = 0, start = 0; c <= N; ++c) start += std::exchange(buckets[c], start);
  bool paperOrder = true;
  for (std::size_t r = 0; r < P; ++r) {
    const std::size_t at = buckets[candidates[r]]++;
    order[at] = r;
    paperOrder = paperOrder && at == r;
  }
  if (attemptMapping(fm, adjacency, opts_.backtracking, s, result) || paperOrder) return result;
  std::iota(order.begin(), order.end(), std::size_t{0});
  attemptMapping(fm, adjacency, opts_.backtracking, s, result);
  return result;
}

}  // namespace mcx
