#include "map/exact_mapper.hpp"

#include "util/error.hpp"

namespace mcx {

MappingResult ExactMapper::map(const FunctionMatrix& fm, const BitMatrix& cm,
                               MappingContext& ctx) const {
  MCX_REQUIRE(fm.cols() == cm.cols(), "ExactMapper: column count mismatch");
  MappingResult result;
  if (fm.rows() > cm.rows()) return result;

  const BitMatrix& adjacency = ctx.candidateAdjacency(fm.bits(), cm);
  if (opts_.useMunkres) {
    // The paper's formulation: zero-cost Munkres assignment on the full
    // matching matrix (the ablation runtime baseline).
    const AssignmentResult assignment = munkresSolve(buildMatchingMatrix(adjacency));
    if (assignment.cost != 0) return result;

    result.rowAssignment.assign(assignment.assignment.begin(),
                                assignment.assignment.begin() +
                                    static_cast<std::ptrdiff_t>(fm.rows()));
    result.success = true;
    return result;
  }

  // Feasibility fast path: Hopcroft-Karp on the same adjacency decides the
  // same perfect-matching question in O(E sqrt(V)).
  FeasibleAssignment assignment = solveFeasibleAssignment(adjacency);
  if (!assignment.success) return result;

  result.rowAssignment = std::move(assignment.assignment);
  result.success = true;
  return result;
}

}  // namespace mcx
