#include "map/matching.hpp"

#include <algorithm>
#include <bit>

#include "assign/hopcroft_karp.hpp"
#include "util/error.hpp"

namespace mcx {

bool rowMatches(const BitMatrix& fm, std::size_t fmRow, const BitMatrix& cm, std::size_t cmRow) {
  return fm.rowSubsetOf(fmRow, cm, cmRow);
}

BitMatrix buildCandidateAdjacency(const BitMatrix& fm, const BitMatrix& cm) {
  BitMatrix adjacency;
  buildCandidateAdjacencyInto(fm, cm, adjacency);
  return adjacency;
}

void buildCandidateAdjacencyInto(const BitMatrix& fm, const BitMatrix& cm, BitMatrix& out) {
  MCX_REQUIRE(fm.cols() == cm.cols(), "buildCandidateAdjacency: column mismatch");
  // Zero-column rows are subsets of everything (rowMatches is trivially
  // true), so the degenerate adjacency is all-ones, not all-zeros.
  if (fm.cols() == 0) {
    out.reshape(fm.rows(), cm.rows(), true);
    return;
  }
  out.reshape(fm.rows(), cm.rows());
  if (fm.rows() == 0 || cm.rows() == 0) return;

  // Hot inner loop of every mapper: raw row words with a hoisted stride and
  // a branchless fit test (the ~50/50 fit rate makes a branch mispredict
  // per pair), accumulating 64 results into each output word.
  using Word = BitMatrix::Word;
  const std::size_t words = fm.rowWords(0).size();
  const Word* cmBase = cm.rowWords(0).data();
  const std::size_t n = cm.rows();
  for (std::size_t i = 0; i < fm.rows(); ++i) {
    const Word* a = fm.rowWords(i).data();
    Word* dst = out.rowWords(i).data();
    const Word* b = cmBase;
    for (std::size_t j0 = 0; j0 < n; j0 += BitMatrix::kWordBits) {
      const std::size_t blockEnd = std::min(n, j0 + BitMatrix::kWordBits);
      Word acc = 0;
      if (words == 1) {
        const Word aw = a[0];
        for (std::size_t j = j0; j < blockEnd; ++j, b += 1)
          acc |= static_cast<Word>((aw & ~b[0]) == 0) << (j - j0);
      } else {
        for (std::size_t j = j0; j < blockEnd; ++j, b += words) {
          Word miss = 0;
          for (std::size_t w = 0; w < words; ++w) miss |= a[w] & ~b[w];
          acc |= static_cast<Word>(miss == 0) << (j - j0);
        }
      }
      dst[j0 / BitMatrix::kWordBits] = acc;
    }
  }
}

BitMatrix buildCandidateAdjacency(const BitMatrix& fm, const std::vector<std::size_t>& fmRows,
                                  const BitMatrix& cm, const std::vector<std::size_t>& cmRows) {
  MCX_REQUIRE(fm.cols() == cm.cols(), "buildCandidateAdjacency: column mismatch");
  for (const std::size_t r : fmRows)
    MCX_REQUIRE(r < fm.rows(), "buildCandidateAdjacency: FM row out of range");
  for (const std::size_t r : cmRows)
    MCX_REQUIRE(r < cm.rows(), "buildCandidateAdjacency: CM row out of range");
  if (fm.cols() == 0) return BitMatrix(fmRows.size(), cmRows.size(), true);
  BitMatrix adjacency(fmRows.size(), cmRows.size());
  if (fmRows.empty() || cmRows.empty()) return adjacency;

  // Same word-parallel fit test as the full overload (this one sits on the
  // per-sample path of the Munkres mappers), with the row indirection
  // resolved to raw word pointers up front.
  using Word = BitMatrix::Word;
  const std::size_t words = fm.rowWords(0).size();
  const Word* const fmBase = fm.rowWords(0).data();
  const Word* const cmBase = cm.rowWords(0).data();
  const std::size_t n = cmRows.size();
  for (std::size_t i = 0; i < fmRows.size(); ++i) {
    const Word* a = fmBase + fmRows[i] * words;
    Word* dst = adjacency.rowWords(i).data();
    for (std::size_t j0 = 0; j0 < n; j0 += BitMatrix::kWordBits) {
      const std::size_t blockEnd = std::min(n, j0 + BitMatrix::kWordBits);
      Word acc = 0;
      for (std::size_t j = j0; j < blockEnd; ++j) {
        const Word* b = cmBase + cmRows[j] * words;
        Word miss = 0;
        for (std::size_t w = 0; w < words; ++w) miss |= a[w] & ~b[w];
        acc |= static_cast<Word>(miss == 0) << (j - j0);
      }
      dst[j0 / BitMatrix::kWordBits] = acc;
    }
  }
  return adjacency;
}

namespace {

// FNV-1a over the matrix words. An (address, dims) cache key alone would
// silently serve a stale column index when a caller destroys one FM and the
// next lands at the same address with the same shape (allocator reuse); an
// O(words) content hash per bind closes that hole at a cost far below the
// adjacency build it guards.
std::uint64_t hashWords(const BitMatrix& m) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (const BitMatrix::Word w : m.rowWords(r)) {
      h ^= w;
      h *= 1099511628211ULL;
    }
  return h;
}

}  // namespace

void MappingContext::bindFm(const BitMatrix& fm) {
  const std::uint64_t hash = hashWords(fm);
  if (fmKey_ == &fm && fmRowsKey_ == fm.rows() && fmColsKey_ == fm.cols() &&
      fmHashKey_ == hash)
    return;
  fmKey_ = &fm;
  fmRowsKey_ = fm.rows();
  fmColsKey_ = fm.cols();
  fmHashKey_ = hash;
  fmOnes_ = 0;
  fmRowEmpty_.assign(fm.rows(), 0);
  // CSR column -> FM rows index: counting pass, prefix sums, fill pass.
  std::vector<std::uint32_t> counts(fm.cols() + 1, 0);
  for (std::size_t i = 0; i < fm.rows(); ++i) {
    const auto row = fm.rowWords(i);
    std::size_t ones = 0;
    for (std::size_t w = 0; w < row.size(); ++w) {
      BitMatrix::Word bits = row[w];
      ones += static_cast<std::size_t>(std::popcount(bits));
      while (bits != 0) {
        const std::size_t c = w * BitMatrix::kWordBits +
                              static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        ++counts[c + 1];
      }
    }
    fmOnes_ += ones;
    fmRowEmpty_[i] = ones == 0 ? 1 : 0;
  }
  for (std::size_t c = 0; c < fm.cols(); ++c) counts[c + 1] += counts[c];
  colOffsets_ = counts;
  colRows_.assign(fmOnes_, 0);
  for (std::size_t i = 0; i < fm.rows(); ++i) {
    const auto row = fm.rowWords(i);
    for (std::size_t w = 0; w < row.size(); ++w) {
      BitMatrix::Word bits = row[w];
      while (bits != 0) {
        const std::size_t c = w * BitMatrix::kWordBits +
                              static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        colRows_[counts[c]++] = static_cast<std::uint32_t>(i);
      }
    }
  }
}

const BitMatrix& MappingContext::candidateAdjacency(const BitMatrix& fm, const BitMatrix& cm) {
  const bool sampleUsable = defects_ != nullptr && dirty_ != nullptr && !dirty_->all &&
                            cm.rows() == defects_->rows() && cm.cols() == defects_->cols() &&
                            fm.cols() == cm.cols() && fm.rows() > 0 && cm.rows() > 0;
  if (!sampleUsable) {
    buildCandidateAdjacencyInto(fm, cm, adjacency_);
    return adjacency_;
  }
  bindFm(fm);

  using Word = BitMatrix::Word;
  // Transpose the stuck-open matrix so openT_ row c is "which CM rows have
  // an open defect at column c", laid out over the adjacency's word space.
  openT_.assignTransposed(defects_->openBits());

  adjacency_.reshape(fm.rows(), cm.rows());
  Word* const base = adjacency_.rowWords(0).data();
  const std::size_t stride = adjacency_.rowWords(0).size();
  const Word tailMask = BitMatrix::tailMask(cm.rows());
  const Word* const openTBase = openT_.rows() > 0 ? openT_.rowWords(0).data() : nullptr;

  // FM row i keeps exactly the CM rows with no open defect in any of i's
  // required columns: complement of the union of those columns' masks.
  // (An all-zero FM row unions nothing and keeps every CM row — correct,
  // it fits anything.)
  unionScratch_.assign(stride, 0);
  Word* const u = unionScratch_.data();
  for (std::size_t i = 0; i < fm.rows(); ++i) {
    for (std::size_t w = 0; w < stride; ++w) u[w] = 0;
    const auto row = fm.rowWords(i);
    for (std::size_t w = 0; w < row.size(); ++w) {
      Word bits = row[w];
      while (bits != 0) {
        const std::size_t c = w * BitMatrix::kWordBits +
                              static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        const Word* mask = openTBase + c * stride;
        for (std::size_t w2 = 0; w2 < stride; ++w2) u[w2] |= mask[w2];
      }
    }
    Word* dst = base + i * stride;
    for (std::size_t w2 = 0; w2 < stride; ++w2) dst[w2] = ~u[w2];
    dst[stride - 1] &= tailMask;
  }

  // Stuck-closed poisoning on top. A poisoned CM row is all-zero in the CM
  // (only all-zero FM rows still fit it); a poisoned CM column zeroes bit c
  // of every CM row, so every FM row requiring c loses all candidates.
  if (dirty_->stuckClosed > 0) {
    poisonRowMask_.assign(stride, 0);
    poisonColMask_.assign(defects_->closedBits().rowWords(0).size(), 0);
    for (const std::size_t j : dirty_->rows) {
      const auto closed = defects_->closedBits().rowWords(j);
      bool poisoned = false;
      for (std::size_t w = 0; w < closed.size(); ++w) {
        poisonColMask_[w] |= closed[w];
        poisoned = poisoned || closed[w] != 0;
      }
      if (poisoned)
        poisonRowMask_[j / BitMatrix::kWordBits] |= Word{1} << (j % BitMatrix::kWordBits);
    }
    for (std::size_t i = 0; i < fm.rows(); ++i) {
      if (fmRowEmpty_[i] != 0) continue;
      Word* dst = base + i * stride;
      for (std::size_t w = 0; w < stride; ++w) dst[w] &= ~poisonRowMask_[w];
    }
    for (std::size_t w = 0; w < poisonColMask_.size(); ++w) {
      Word bits = poisonColMask_[w];
      while (bits != 0) {
        const std::size_t c = w * BitMatrix::kWordBits +
                              static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        for (std::size_t k = colOffsets_[c]; k < colOffsets_[c + 1]; ++k) {
          Word* row = base + colRows_[k] * stride;
          for (std::size_t w2 = 0; w2 < stride; ++w2) row[w2] = 0;
        }
      }
    }
  }
  return adjacency_;
}

CostMatrix buildMatchingMatrix(const BitMatrix& fm, const std::vector<std::size_t>& fmRows,
                               const BitMatrix& cm, const std::vector<std::size_t>& cmRows) {
  return buildMatchingMatrix(buildCandidateAdjacency(fm, fmRows, cm, cmRows));
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
