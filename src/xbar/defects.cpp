#include "xbar/defects.hpp"

#include <bit>

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
  const std::size_t rows = defects.rows();
  const std::size_t cols = defects.cols();
  cm.reshape(rows, cols);
  if (rows == 0 || cols == 0) return;

  const BitMatrix::Word tailMask = BitMatrix::tailMask(cols);

  // Functional = not stuck-open: one NOT per word instead of per-bit resets.
  for (std::size_t r = 0; r < rows; ++r) {
    const auto open = defects.openBits().rowWords(r);
    const auto dst = cm.rowWords(r);
    for (std::size_t i = 0; i < dst.size(); ++i) dst[i] = ~open[i];
    dst[dst.size() - 1] &= tailMask;
  }

  if (defects.stuckClosedCount() == 0) return;
  // A stuck-closed crosspoint poisons its whole row and column. Fold all
  // closed rows into a column mask, then clear poisoned rows and columns
  // word-at-a-time.
  const std::size_t wordsPerRow = cm.rowWords(0).size();
  std::vector<BitMatrix::Word> colPoison(wordsPerRow, 0);
  for (std::size_t r = 0; r < rows; ++r) {
    const auto closed = defects.closedBits().rowWords(r);
    for (std::size_t i = 0; i < wordsPerRow; ++i) colPoison[i] |= closed[i];
  }
  for (std::size_t r = 0; r < rows; ++r) {
    const auto dst = cm.rowWords(r);
    if (defects.closedBits().rowCount(r) > 0) {
      for (auto& w : dst) w = 0;
    } else {
      for (std::size_t i = 0; i < wordsPerRow; ++i) dst[i] &= ~colPoison[i];
    }
  }
}

}  // namespace mcx
