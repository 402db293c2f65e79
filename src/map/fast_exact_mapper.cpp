#include "map/fast_exact_mapper.hpp"

#include "util/error.hpp"

namespace mcx {

MappingResult FastExactMapper::map(const FunctionMatrix& fm, const BitMatrix& cm,
                                   MappingContext& ctx) const {
  MCX_REQUIRE(fm.cols() == cm.cols(), "FastExactMapper: column count mismatch");
  MappingResult result;
  if (fm.rows() > cm.rows()) return result;

  // Hopcroft-Karp runs directly on the bit adjacency; no per-edge adjacency
  // lists are materialized.
  const BitMatrix& adjacency = ctx.candidateAdjacency(fm.bits(), cm);
  FeasibleAssignment assignment = solveFeasibleAssignment(adjacency);
  if (!assignment.success) return result;

  result.rowAssignment = std::move(assignment.assignment);
  result.success = true;
  return result;
}

}  // namespace mcx
