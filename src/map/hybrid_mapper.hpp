// HybridMapper (HBA): the paper's Algorithm 1.
//
// Phase 1 — heuristic minterm matching: FMm rows are matched to CM rows
// greedily top-to-bottom. When a row cannot be placed on any unmatched CM
// row, one-level backtracking runs: for each already-matched CM row (top to
// bottom) that could host the new FM row, try to relocate its current owner
// to some unmatched CM row; on success swap the assignments.
//
// Phase 2 — exact output assignment: the matching matrix of the output rows
// (FMo) against the remaining unmatched CM rows (CMu) is solved with
// Munkres; the mapping is valid iff a zero-cost assignment exists (a single
// defect can discard a whole output, hence the exact method here).
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

  std::string name() const override { return opts_.backtracking ? "HBA" : "HBA-nobt"; }
  using IMapper::map;
  MappingResult map(const FunctionMatrix& fm, const BitMatrix& cm,
                    MappingContext& ctx) const override;

private:
  HybridMapperOptions opts_;
};

}  // namespace mcx
