// HybridMapper (HBA): the paper's Algorithm 1.
//
// Phase 1 — heuristic minterm matching: FMm rows are matched greedily, each
// to the first unmatched CM row it fits. The default order places the
// most-constrained rows (fewest candidate CM rows) first, ties in the
// paper's top-to-bottom order, and retries the paper's order when that one
// dead-ends; the "-paper" variant runs the paper's order alone. When a row
// cannot be placed on any unmatched CM row, one-level backtracking runs:
// for each already-matched CM row (top to bottom) that could host the new
// FM row, try to relocate its current owner to some unmatched CM row; on
// success swap the assignments.
//
// Phase 2 — exact output assignment: the matching matrix of the output rows
// (FMo) against the remaining unmatched CM rows (CMu) is solved with
// Hopcroft-Karp; the mapping is valid iff it matches every output row (a
// single defect can discard a whole output, hence the exact method here).
//
// Every attempt runs on the MappingContext's reused buffers (degree counts,
// row order, assignment, free mask, phase-2 sub-matrix), so a Monte Carlo
// worker allocates only the result and Hopcroft-Karp's state per sample.
#pragma once

#include "map/matching.hpp"

namespace mcx {

struct HybridMapperOptions {
  /// Disable phase-1 backtracking (ablation A3).
  bool backtracking = true;
  /// Place most-constrained minterm rows (fewest candidate CM rows) first in
  /// phase 1 (stable, so equal-degree rows keep the paper's top-to-bottom
  /// order); if that order dead-ends, the paper's top-to-bottom order is
  /// retried, so the success set is the union of both orders. Disable to
  /// reproduce the paper's exact single-order greedy.
  bool sortByCandidates = true;
};

class HybridMapper final : public IMapper {
public:
  explicit HybridMapper(HybridMapperOptions opts = {}) : opts_(opts) {}

  std::string name() const override {
    return std::string("HBA") + (opts_.sortByCandidates ? "" : "-paper") +
           (opts_.backtracking ? "" : "-nobt");
  }
  using IMapper::map;
  MappingResult map(const FunctionMatrix& fm, const BitMatrix& cm,
                    MappingContext& ctx) const override;

private:
  HybridMapperOptions opts_;
};

}  // namespace mcx
