// Test oracle: exact minterm-diff counting between an intended cover and a
// (defect-)degraded realization.
//
// The unit of error is a care (minterm, output) pair: a pair is wrong when
// the realized function and the specification disagree on it, and a pair is
// excluded from both numerator and denominator when the specification marks
// it don't-care. Everything here is computed on explicit truth tables
// (logic/truth_table.hpp), so the counts are exact, not sampled — the
// reference the approximate mapper's per-sample realizedError (taken from
// its memoized cube tables) is checked against.
#pragma once

#include <cstddef>
#include <vector>

#include "logic/cover.hpp"
#include "logic/truth_table.hpp"
#include "util/error.hpp"

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

namespace detail {

inline ErrorReport compareImpl(const TruthTable& spec, const TruthTable& realized,
                               const TruthTable* dontCare) {
  MCX_REQUIRE(spec.nin() == realized.nin() && spec.nout() == realized.nout(),
              "compareTruthTables: arity mismatch");
  ErrorReport report;
  report.wrongPerOutput.resize(spec.nout(), 0);
  report.carePerOutput.resize(spec.nout(), 0);
  const std::size_t minterms = spec.numMinterms();
  for (std::size_t o = 0; o < spec.nout(); ++o) {
    DynBits diff = spec.bits(o) ^ realized.bits(o);
    std::size_t care = minterms;
    if (dontCare != nullptr) {
      diff.andNot(dontCare->bits(o));
      care = minterms - dontCare->bits(o).count();
    }
    const std::size_t wrong = diff.count();
    report.wrongPerOutput[o] = wrong;
    report.carePerOutput[o] = care;
    report.wrongPairs += wrong;
    report.carePairs += care;
  }
  return report;
}

inline TruthTable subsetTable(const Cover& spec, const std::vector<std::size_t>& retained) {
  MCX_REQUIRE(spec.nin() <= 16, "coverSubsetError: explicit truth tables, 16-input bound");
  TruthTable realized(spec.nin(), spec.nout());
  for (const std::size_t i : retained) {
    MCX_REQUIRE(i < spec.size(), "coverSubsetError: retained index out of range");
    const Cube& c = spec.cube(i);
    const DynBits tt = ttOfCube(c);
    for (std::size_t o = 0; o < spec.nout(); ++o)
      if (c.out(o)) realized.bits(o) |= tt;
  }
  return realized;
}

}  // namespace detail

/// Exact pairwise diff of two truth tables of identical arity: every
/// (minterm, output) pair is a care pair.
inline ErrorReport compareTruthTables(const TruthTable& spec, const TruthTable& realized) {
  return detail::compareImpl(spec, realized, nullptr);
}

/// Don't-care-aware diff: pairs set in @p dontCare are excluded from both
/// counts (the specification does not care what the realization does there).
inline ErrorReport compareTruthTables(const TruthTable& spec, const TruthTable& realized,
                                      const TruthTable& dontCare) {
  MCX_REQUIRE(spec.nin() == dontCare.nin() && spec.nout() == dontCare.nout(),
              "compareTruthTables: don't-care arity mismatch");
  return detail::compareImpl(spec, realized, &dontCare);
}

/// Error of realizing only the cubes @p retained (indices into @p spec's
/// cube list) instead of the full cover: the dropped cubes' uniquely-covered
/// ON pairs go missing. Retained-subset realizations can only under-cover
/// (they never assert a pair the full cover does not), so this is the exact
/// functional cost of an approximate mapper's sacrifice.
inline ErrorReport coverSubsetError(const Cover& spec, const std::vector<std::size_t>& retained) {
  return compareTruthTables(TruthTable::fromCover(spec), detail::subsetTable(spec, retained));
}

/// Don't-care-aware variant: @p dc pairs are free.
inline ErrorReport coverSubsetError(const Cover& spec, const Cover& dc,
                                    const std::vector<std::size_t>& retained) {
  return compareTruthTables(TruthTable::fromCover(spec), detail::subsetTable(spec, retained),
                            TruthTable::fromCover(dc));
}

}  // namespace mcx::approx
