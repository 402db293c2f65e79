// Defect maps of the paper (Section IV).
//
// A crosspoint is either functional or defective: stuck-at-open (permanently
// R_OFF — usable wherever a *disabled* switch is needed, fatal where an
// *active* one is) or stuck-at-closed (permanently R_ON — poisons its whole
// horizontal and vertical line: the line initialization and NAND evaluation
// both read the forced logic 0).
//
// DefectMap is only the data type; the DefectModels of
// scenario/defect_model.hpp draw it (IidBernoulli is the paper's
// independent per-crosspoint draw).
//
// The crossbar matrix (CM) follows Fig. 8: entry 1 = functional crosspoint
// (matches both 1 and 0 in the FM), entry 0 = unusable (matches only 0).
#pragma once

#include <cstddef>
#include <vector>

#include "util/bit_matrix.hpp"

namespace mcx {

enum class DefectType : unsigned char { None, StuckOpen, StuckClosed };

// Kept only for perfbench; delete in the next benchmark PR.
struct DirtyRows {};

class DefectMap {
public:
  DefectMap() = default;
  DefectMap(std::size_t rows, std::size_t cols);

  std::size_t rows() const { return open_.rows(); }
  std::size_t cols() const { return open_.cols(); }

  DefectType type(std::size_t r, std::size_t c) const;
  void setType(std::size_t r, std::size_t c, DefectType t);

  bool isStuckOpen(std::size_t r, std::size_t c) const { return open_.test(r, c); }
  bool isStuckClosed(std::size_t r, std::size_t c) const { return closed_.test(r, c); }

  /// True iff the row contains a stuck-at-closed crosspoint (line unusable).
  bool rowPoisoned(std::size_t r) const;
  /// True iff the column contains a stuck-at-closed crosspoint.
  bool colPoisoned(std::size_t c) const;

  std::size_t stuckOpenCount() const { return open_.count(); }
  std::size_t stuckClosedCount() const { return closed_.count(); }

  const BitMatrix& openBits() const { return open_; }
  const BitMatrix& closedBits() const { return closed_; }

  /// Mutable word-level access for the samplers' placement loops (the
  /// i.i.d. models in scenario/defect_model.hpp fill these bits directly).
  /// Callers own the invariant that a crosspoint is never both stuck-open
  /// and stuck-closed.
  BitMatrix& mutableOpenBits() { return open_; }
  BitMatrix& mutableClosedBits() { return closed_; }

  /// Resize to rows x cols with every crosspoint functional, reusing the
  /// existing allocations (scratch-arena entry point for DefectModels).
  void reshape(std::size_t rows, std::size_t cols);

  /// Union this map with @p other (same dimensions): a crosspoint is
  /// defective if it is defective in either map, and stuck-closed dominates
  /// stuck-open (the harsher failure wins). CompositeModel layering.
  void overlay(const DefectMap& other);

private:
  BitMatrix open_;
  BitMatrix closed_;
};

/// The paper's CM: functional = 1; stuck-open crosspoints = 0; stuck-closed
/// crosspoints additionally clear their entire row and column.
BitMatrix crossbarMatrix(const DefectMap& defects);

/// In-place variant of crossbarMatrix(): word-parallel derivation into a
/// reusable buffer (one word op per 64 crosspoints instead of a per-bit
/// test/reset loop). Allocates nothing once @p cm and the per-thread column
/// mask have grown to the shape, so the Monte Carlo engine calls it per
/// sample.
void crossbarMatrixInto(const DefectMap& defects, BitMatrix& cm);

}  // namespace mcx
