#include "xbar/defects.hpp"

#include <bit>
#include <vector>

#include "util/error.hpp"

namespace mcx {

DefectMap::DefectMap(std::size_t rows, std::size_t cols)
    : open_(rows, cols), closed_(rows, cols) {}

DefectType DefectMap::type(std::size_t r, std::size_t c) const {
  if (closed_.test(r, c)) return DefectType::StuckClosed;
  if (open_.test(r, c)) return DefectType::StuckOpen;
  return DefectType::None;
}

void DefectMap::setType(std::size_t r, std::size_t c, DefectType t) {
  open_.set(r, c, t == DefectType::StuckOpen);
  closed_.set(r, c, t == DefectType::StuckClosed);
}

bool DefectMap::rowPoisoned(std::size_t r) const { return closed_.rowCount(r) > 0; }

bool DefectMap::colPoisoned(std::size_t c) const { return closed_.colCount(c) > 0; }

void DefectMap::reshape(std::size_t rows, std::size_t cols) {
  open_.reshape(rows, cols);
  closed_.reshape(rows, cols);
}

void DefectMap::overlay(const DefectMap& other) {
  MCX_REQUIRE(rows() == other.rows() && cols() == other.cols(),
              "DefectMap::overlay: dimension mismatch");
  for (std::size_t r = 0; r < rows(); ++r) {
    const auto open = open_.rowWords(r);
    const auto closed = closed_.rowWords(r);
    const auto otherOpen = other.open_.rowWords(r);
    const auto otherClosed = other.closed_.rowWords(r);
    for (std::size_t i = 0; i < open.size(); ++i) {
      closed[i] |= otherClosed[i];
      open[i] = (open[i] | otherOpen[i]) & ~closed[i];
    }
  }
}

BitMatrix crossbarMatrix(const DefectMap& defects) {
  BitMatrix cm;
  crossbarMatrixInto(defects, cm);
  return cm;
}

void crossbarMatrixInto(const DefectMap& defects, BitMatrix& cm) {
  using Word = BitMatrix::Word;
  const std::size_t rows = defects.rows();
  const std::size_t cols = defects.cols();
  cm.reshape(rows, cols);
  if (rows == 0 || cols == 0) return;

  // The three matrices share one row-contiguous layout, so the common pass
  // runs flat over all words: functional = not stuck-open, and an OR of the
  // closed bits says whether any line is poisoned.
  const std::size_t wordsPerRow = cm.rowWords(0).size();
  const std::size_t words = rows * wordsPerRow;
  const Word* const open = defects.openBits().rowWords(0).data();
  const Word* const closed = defects.closedBits().rowWords(0).data();
  Word* const dst = cm.rowWords(0).data();
  Word anyClosed = 0;
  for (std::size_t k = 0; k < words; ++k) {
    dst[k] = ~open[k];
    anyClosed |= closed[k];
  }
  const Word tailMask = BitMatrix::tailMask(cols);
  for (std::size_t k = wordsPerRow - 1; k < words; k += wordsPerRow) dst[k] &= tailMask;
  if (anyClosed == 0) return;

  // A stuck-closed crosspoint poisons its whole row and column. One OR pass
  // over the closed rows clears each row holding one and folds it into the
  // column mask, kept in per-thread storage so the Monte Carlo hot loop
  // allocates nothing per sample; then the poisoned columns are cleared.
  thread_local std::vector<Word> colPoison;
  colPoison.assign(wordsPerRow, 0);
  for (std::size_t k = 0; k < words; k += wordsPerRow) {
    Word rowClosed = 0;
    for (std::size_t i = 0; i < wordsPerRow; ++i) rowClosed |= closed[k + i];
    if (rowClosed == 0) continue;
    for (std::size_t i = 0; i < wordsPerRow; ++i) {
      colPoison[i] |= closed[k + i];
      dst[k + i] = 0;
    }
  }
  for (std::size_t k = 0; k < words; k += wordsPerRow)
    for (std::size_t i = 0; i < wordsPerRow; ++i) dst[k + i] &= ~colPoison[i];
}

}  // namespace mcx
