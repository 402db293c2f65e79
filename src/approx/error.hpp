// Functional error metrics: exact minterm-diff counting between an intended
// cover and a (defect-)degraded realization.
//
// The unit of error is a care (minterm, output) pair: a pair is wrong when
// the realized function and the specification disagree on it, and a pair is
// excluded from both numerator and denominator when the specification marks
// it don't-care. Everything here is computed on explicit truth tables
// (logic/truth_table.hpp), so the counts are exact, not sampled — this is
// the ground truth that graded acceptance (functional yield(ε)) and the
// approximate mapper's per-sample realizedError are defined against, and
// what the exhaustive cross-check tests verify independently.
#pragma once

#include <cstddef>
#include <vector>

#include "logic/cover.hpp"
#include "logic/truth_table.hpp"

namespace mcx::approx {

/// Exact error tally of one realization against its specification.
struct ErrorReport {
  std::size_t carePairs = 0;   ///< (minterm, output) pairs that matter
  std::size_t wrongPairs = 0;  ///< care pairs where realized != spec
  std::vector<std::size_t> wrongPerOutput;
  std::vector<std::size_t> carePerOutput;

  /// Global error fraction in [0, 1]; an empty care set counts as exact.
  double fraction() const {
    return carePairs == 0 ? 0.0
                          : static_cast<double>(wrongPairs) / static_cast<double>(carePairs);
  }
  double fractionForOutput(std::size_t o) const {
    return carePerOutput[o] == 0 ? 0.0
                                 : static_cast<double>(wrongPerOutput[o]) /
                                       static_cast<double>(carePerOutput[o]);
  }
};

/// Declarative acceptance budget: a global fraction of care pairs allowed
/// wrong, optionally tightened per output.
struct ErrorBudget {
  /// Fraction of care (minterm, output) pairs allowed wrong, in [0, 1].
  /// 0 is exact acceptance — the classical pass/fail criterion.
  double epsilon = 0.0;
  /// Optional per-output budgets (empty = global only). Entry o bounds
  /// output o's own wrong fraction; all listed outputs must hold.
  std::vector<double> perOutputEpsilon;

  bool withinBudget(const ErrorReport& report) const;
};

/// Exact pairwise diff of two truth tables of identical arity: every
/// (minterm, output) pair is a care pair.
ErrorReport compareTruthTables(const TruthTable& spec, const TruthTable& realized);

/// Don't-care-aware diff: pairs set in @p dontCare are excluded from both
/// counts (the specification does not care what the realization does there).
ErrorReport compareTruthTables(const TruthTable& spec, const TruthTable& realized,
                               const TruthTable& dontCare);

/// Error of realizing only the cubes @p retained (indices into @p spec's
/// cube list) instead of the full cover: the dropped cubes' uniquely-covered
/// ON pairs go missing. Retained-subset realizations can only under-cover
/// (they never assert a pair the full cover does not), so this is the exact
/// functional cost of an approximate mapper's sacrifice.
ErrorReport coverSubsetError(const Cover& spec, const std::vector<std::size_t>& retained);

/// Don't-care-aware variant: @p dc pairs are free.
ErrorReport coverSubsetError(const Cover& spec, const Cover& dc,
                             const std::vector<std::size_t>& retained);

}  // namespace mcx::approx
