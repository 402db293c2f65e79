// ApproxMapper: graded defect-tolerant mapping under an error budget.
//
// Wraps an exact/heuristic inner mapper. When the inner mapper succeeds the
// result passes through untouched (realizedError = 0). When it fails — the
// classical "dead sample" — the approx path deliberately sacrifices the
// lowest-weight unrealizable product cubes to rescue the rest: output rows
// are mandatory, product rows are re-added in descending weight order with
// an incremental augmenting-path matching, so the retained set is a
// maximum-weight matchable row subset (greedy is optimal here — matchable
// subsets form a transversal matroid). Each augmenting pass is Kuhn's DFS
// in its textbook visit order (ascending CM row, resume after the candidate
// taken), with the next candidate found word-parallel in the adjacency row
// masked by the unvisited CM rows, on per-thread scratch reused across
// samples. A cube's weight is the number of (minterm, output) care pairs
// only it covers, and the reported realizedError is counted exactly from
// the retained cubes' truth tables, memoized per FM with the spec's — the
// value approx::coverSubsetError (src/approx/error.hpp) reports, never
// estimated from the weights.
//
// Scope: two-level function matrices (numConnectionCols() == 0) with at
// most 16 inputs — the explicit-truth-table bound. Outside that scope, or
// when the best rescue still exceeds the mapper's epsilon budget, the inner
// mapper's plain failure is returned unchanged (binary error 1).
//
// Result contract on a rescue: success stays false (the full FM was NOT
// realized); rowAssignment covers the retained rows with kUnassigned at
// droppedRows; realizedError holds the exact care-pair error fraction. The
// Monte Carlo engine accepts the sample iff realizedError <= its configured
// epsilon (functional yield(ε)), and verifies the physical half with
// verifyPartialMapping.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "map/matching.hpp"

namespace mcx {

struct ApproxMapperOptions {
  /// The mapper's own sacrifice budget: a rescue whose exact realized error
  /// exceeds this fraction is discarded (plain failure). 1.0 = report every
  /// achievable rescue and leave acceptance to the experiment's epsilon.
  double epsilon = 1.0;
};

class ApproxMapper final : public IMapper {
public:
  ApproxMapper() : ApproxMapper(ApproxMapperOptions{}) {}
  /// Null @p inner defaults to the fast exact mapper (one maximum bipartite
  /// matching), so the rescue path only ever runs on truly unmappable
  /// samples and yield(0) stays bit-identical to the exact yield.
  explicit ApproxMapper(const ApproxMapperOptions& options,
                        std::shared_ptr<const IMapper> inner = nullptr);

  std::string name() const override;
  MappingResult map(const FunctionMatrix& fm, const BitMatrix& cm) const override;
  MappingResult map(const FunctionMatrix& fm, const BitMatrix& cm,
                    MappingContext& ctx) const override;

  const ApproxMapperOptions& options() const { return options_; }
  const IMapper& inner() const { return *inner_; }

private:
  /// Per-FM precomputation (cube list, spec and cube truth tables, cube
  /// weights, weight-sorted row order): depends only on the FM content, not
  /// on the defect sample, so it is cached under the FM's content hash —
  /// a hit is confirmed against the stored FM content — and shared by every
  /// worker thread of an experiment.
  struct FmAnalysis;

  std::shared_ptr<const FmAnalysis> analyze(const FunctionMatrix& fm) const;
  MappingResult rescue(const FunctionMatrix& fm, const BitMatrix& cm,
                       const BitMatrix& adjacency, MappingResult innerFailure) const;

  ApproxMapperOptions options_;
  std::shared_ptr<const IMapper> inner_;
  mutable std::mutex cacheMutex_;
  mutable std::unordered_map<std::uint64_t, std::shared_ptr<const FmAnalysis>> cache_;
};

}  // namespace mcx
