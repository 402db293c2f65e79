#include "map/matching.hpp"

#include <bit>

#include "assign/hopcroft_karp.hpp"
#include "util/error.hpp"

namespace mcx {

bool rowMatches(const BitMatrix& fm, std::size_t fmRow, const BitMatrix& cm, std::size_t cmRow) {
  return fm.rowSubsetOf(fmRow, cm, cmRow);
}

namespace {

// The one candidate-adjacency kernel (see buildCandidateAdjacency): @p cmT
// receives the transposed CM, @p out the adjacency; both are reused
// buffers.
void buildAdjacency(const BitMatrix& fm, const BitMatrix& cm, BitMatrix& cmT, BitMatrix& out) {
  MCX_REQUIRE(fm.cols() == cm.cols(), "buildCandidateAdjacency: column mismatch");
  out.reshape(fm.rows(), cm.rows());
  if (fm.rows() == 0 || cm.rows() == 0) return;
  cmT.assignTransposed(cm);

  using Word = BitMatrix::Word;
  const std::size_t stride = out.rowWords(0).size();  // == cmT's row words
  const Word tail = BitMatrix::tailMask(cm.rows());
  Word* const base = out.rowWords(0).data();
  const Word* const cmTBase = cmT.rows() > 0 ? cmT.rowWords(0).data() : nullptr;
  for (std::size_t i = 0; i < fm.rows(); ++i) {
    Word* const dst = base + i * stride;
    for (std::size_t w = 0; w < stride; ++w) dst[w] = ~Word{0};
    dst[stride - 1] = tail;
    const auto row = fm.rowWords(i);
    for (std::size_t w = 0; w < row.size(); ++w) {
      for (Word bits = row[w]; bits != 0; bits &= bits - 1) {
        const std::size_t c = w * BitMatrix::kWordBits +
                              static_cast<std::size_t>(std::countr_zero(bits));
        const Word* const functional = cmTBase + c * stride;
        for (std::size_t k = 0; k < stride; ++k) dst[k] &= functional[k];
      }
    }
  }
}

}  // namespace

BitMatrix buildCandidateAdjacency(const BitMatrix& fm, const BitMatrix& cm) {
  BitMatrix cmT, adjacency;
  buildAdjacency(fm, cm, cmT, adjacency);
  return adjacency;
}

const BitMatrix& MappingContext::candidateAdjacency(const BitMatrix& fm, const BitMatrix& cm) {
  buildAdjacency(fm, cm, cmT_, adjacency_);
  return adjacency_;
}

CostMatrix buildMatchingMatrix(const BitMatrix& adjacency) {
  CostMatrix cost(adjacency.rows(), adjacency.cols(), 1);
  for (std::size_t i = 0; i < adjacency.rows(); ++i)
    for (std::size_t j = 0; j < adjacency.cols(); ++j)
      if (adjacency.test(i, j)) cost.at(i, j) = 0;
  return cost;
}

FeasibleAssignment solveFeasibleAssignment(const BitMatrix& adjacency) {
  FeasibleAssignment result;
  if (adjacency.rows() > adjacency.cols()) return result;
  if (adjacency.rows() == 0) {
    result.success = true;
    return result;
  }
  // Degree early exit: a row with no candidate can never be matched.
  for (std::size_t i = 0; i < adjacency.rows(); ++i)
    if (adjacency.rowCount(i) == 0) return result;

  const MatchingResult matching = hopcroftKarp(adjacency);
  if (!matching.perfectForLeft(adjacency.rows())) return result;
  result.success = true;
  result.assignment = matching.matchOfLeft;
  return result;
}

bool verifyMapping(const FunctionMatrix& fm, const BitMatrix& cm, const MappingResult& result,
                   const RedundantCrossbarSpec& spares) {
  return result.success && result.droppedRows.empty() &&
         verifyPartialMapping(fm, cm, result, spares);
}

bool verifyPartialMapping(const FunctionMatrix& fm, const BitMatrix& cm,
                          const MappingResult& result, const RedundantCrossbarSpec& spares) {
  if (result.rowAssignment.size() != fm.rows()) return false;
  // The FM as the mapping placed it: its own columns, or embedded on the
  // result's pair choice (a malformed choice is a rejected claim).
  FunctionMatrix placed;
  const bool embeds = !result.inputPermutation.empty() || !result.outputPairs.empty() ||
                      spares.hasSparePairs();
  if (embeds) {
    try {
      placed = fm.embedded(spares, result.inputPermutation, result.outputPairs);
    } catch (const InvalidArgument&) {
      return false;
    }
  }
  const BitMatrix& bits = embeds ? placed.bits() : fm.bits();
  if (bits.cols() != cm.cols()) return false;
  // droppedRows must be exactly the unassigned rows, strictly ascending.
  // Distinctness via a CM-row bitmask (no sort, no per-call allocation of
  // fm.rows() indices — this runs once per successful Monte Carlo sample).
  std::size_t nextDrop = 0;
  using Word = BitMatrix::Word;
  std::vector<Word> used((cm.rows() + BitMatrix::kWordBits - 1) / BitMatrix::kWordBits, 0);
  for (std::size_t r = 0; r < fm.rows(); ++r) {
    const std::size_t cmRow = result.rowAssignment[r];
    if (cmRow == MappingResult::kUnassigned) {
      if (nextDrop >= result.droppedRows.size() || result.droppedRows[nextDrop] != r)
        return false;
      ++nextDrop;
      continue;
    }
    if (cmRow >= cm.rows()) return false;
    Word& word = used[cmRow / BitMatrix::kWordBits];
    const Word mask = Word{1} << (cmRow % BitMatrix::kWordBits);
    if ((word & mask) != 0) return false;
    word |= mask;
    if (!rowMatches(bits, r, cm, cmRow)) return false;
  }
  return nextDrop == result.droppedRows.size();
}

}  // namespace mcx
