// Row matching between the function matrix (FM) and the crossbar matrix
// (CM), plus the mapper interface shared by HBA / EA / ablation variants.
//
// Matching rule (Section IV-B of the paper): an FM row can be placed on a CM
// row iff every 1 of the FM row (required active switch) falls on a 1 of the
// CM row (functional crosspoint). FM 0s (disabled switches) are compatible
// with both functional and stuck-open crosspoints.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "assign/munkres.hpp"
#include "util/bit_matrix.hpp"
#include "xbar/defects.hpp"
#include "xbar/function_matrix.hpp"

namespace mcx {

/// True iff FM row @p fmRow fits CM row @p cmRow.
bool rowMatches(const BitMatrix& fm, std::size_t fmRow, const BitMatrix& cm, std::size_t cmRow);

/// Candidate adjacency of the matching problem: bit (i, j) set iff FM row i
/// fits CM row j. Computed once per defect sample with the word-parallel
/// rowSubsetOf and shared by every downstream consumer (degree checks,
/// Hopcroft-Karp, cost-matrix construction).
BitMatrix buildCandidateAdjacency(const BitMatrix& fm, const BitMatrix& cm);

/// In-place variant of buildCandidateAdjacency: identical bits, but reuses
/// @p out's allocation (the Monte Carlo scratch-arena entry point).
void buildCandidateAdjacencyInto(const BitMatrix& fm, const BitMatrix& cm, BitMatrix& out);

/// Subset variant: bit (i, j) set iff FM row fmRows[i] fits CM row cmRows[j].
BitMatrix buildCandidateAdjacency(const BitMatrix& fm, const std::vector<std::size_t>& fmRows,
                                  const BitMatrix& cm, const std::vector<std::size_t>& cmRows);

/// Per-experiment scratch for the Monte Carlo mapping hot path.
///
/// The clean crossbar's candidate adjacency is all-ones by construction
/// (every FM row fits a defect-free CM row), so a sample's adjacency only
/// differs where its defects bite. When the engine registers the sample's
/// DefectMap and DirtyRows (setSample), candidateAdjacency() derives each
/// adjacency row directly from the defects: FM row i loses exactly the CM
/// rows that have a stuck-open defect in one of i's required columns, so
/// with the defect matrix transposed once per sample (64x64 bit-block
/// transpose) row i is the complement of the union of its columns' defect
/// masks — O(fmOnes x cmRowWords) word ops per sample instead of the full
/// rebuild's O(fmRows x cmRows x colWords) fit tests. Stuck-closed
/// poisoning is layered on top: a poisoned CM row is erased for every
/// non-empty FM row (word-parallel mask) and a poisoned CM column erases
/// every FM row requiring it (column->rows index built once per FM). Dense
/// models (DirtyRows in markAll mode) and unregistered calls fall back to
/// the full word-parallel rebuild. Both paths produce bit-identical
/// adjacencies — the fast path changes how, never what.
///
/// Contract: the registered DefectMap must be the one @p cm was derived
/// from (crossbarMatrixInto). The per-FM index is cached on an (address,
/// dims, content hash) key, so switching function matrices — even one
/// reallocated at the same address — rebinds automatically; keeping one
/// context per function matrix (as the engine does, one per worker per
/// experiment) just avoids the rebuild churn.
class MappingContext {
public:
  /// Register the sample behind the next candidateAdjacency() call; null
  /// pointers force the full rebuild. The pointees must outlive the call.
  void setSample(const DefectMap* defects, const DirtyRows* dirty) {
    defects_ = defects;
    dirty_ = dirty;
  }

  /// Spare lines of the crossbar the CMs come from (the engine sets its
  /// config's): the column-assignment mapper lays out a wider CM by them.
  void setSpares(const RedundantCrossbarSpec& spares) { spares_ = spares; }
  const RedundantCrossbarSpec& spares() const { return spares_; }

  /// Candidate adjacency of (fm, cm) in a reused internal buffer (valid
  /// until the next call on this context).
  const BitMatrix& candidateAdjacency(const BitMatrix& fm, const BitMatrix& cm);

private:
  void bindFm(const BitMatrix& fm);

  const DefectMap* defects_ = nullptr;
  const DirtyRows* dirty_ = nullptr;
  RedundantCrossbarSpec spares_;

  // Column -> FM rows index (CSR, for poisoned-column erasure) plus the
  // all-zero FM rows, built once per bound function matrix.
  const BitMatrix* fmKey_ = nullptr;
  std::size_t fmRowsKey_ = 0, fmColsKey_ = 0;
  std::uint64_t fmHashKey_ = 0;
  std::size_t fmOnes_ = 0;
  std::vector<std::uint32_t> colOffsets_;
  std::vector<std::uint32_t> colRows_;
  std::vector<unsigned char> fmRowEmpty_;

  // Per-sample scratch: transposed stuck-open matrix, defect-mask union,
  // poison masks, and the adjacency itself.
  BitMatrix openT_;
  std::vector<BitMatrix::Word> unionScratch_;
  std::vector<BitMatrix::Word> poisonRowMask_;
  std::vector<BitMatrix::Word> poisonColMask_;
  BitMatrix adjacency_;
};

/// The paper's "matching matrix" as a Munkres cost matrix: entry 0 where
/// FM row fmRows[i] fits CM row cmRows[j], 1 otherwise. A zero-cost perfect
/// assignment is exactly a valid mapping of the selected rows.
CostMatrix buildMatchingMatrix(const BitMatrix& fm, const std::vector<std::size_t>& fmRows,
                               const BitMatrix& cm, const std::vector<std::size_t>& cmRows);

/// Overload for a precomputed candidate adjacency: cost 0 where the bit is
/// set, 1 otherwise. Lets callers that already hold the adjacency skip the
/// per-pair subset tests.
CostMatrix buildMatchingMatrix(const BitMatrix& adjacency);

/// A solved 0/1 feasibility matching (the unweighted special case of the
/// paper's assignment problem).
struct FeasibleAssignment {
  bool success = false;
  /// assignment[i] = adjacency column matched to row i, when success.
  std::vector<std::size_t> assignment;
};

/// Decide the pure feasibility case via Hopcroft-Karp on the candidate
/// adjacency — O(E sqrt(V)) instead of Munkres' O(n^3). An FM row with zero
/// candidates fails before any solving. Munkres remains the solver for
/// genuinely weighted cost matrices.
FeasibleAssignment solveFeasibleAssignment(const BitMatrix& adjacency);

struct MappingResult {
  static constexpr std::size_t kUnassigned = std::numeric_limits<std::size_t>::max();

  bool success = false;
  /// rowAssignment[fmRow] = CM row, for every FM row, when success.
  std::vector<std::size_t> rowAssignment;
  /// Physical input pair of each variable and output pair of each output
  /// (FunctionMatrix::embedded; empty = each on its own pair), as chosen by
  /// the column-assignment mapper.
  std::vector<std::size_t> inputPermutation;
  std::vector<std::size_t> outputPairs;
  /// Number of backtracking repairs attempted (HBA statistics).
  std::size_t backtracks = 0;
  /// Reserved for a mapper interrupted mid-solve before reaching a
  /// verdict. No mapper in the library sets it: every shipped mapper runs
  /// each sample to completion, and cancellation acts between samples.
  bool aborted = false;
  /// Exact fraction of care (minterm, output) pairs the realized function
  /// gets wrong, in [0, 1]. Negative means "not measured" — the graded
  /// engine then derives 0 from success and 1 from failure, so every
  /// existing mapper participates in functional-yield counting without
  /// change. Only error-aware mappers (src/approx) set it explicitly.
  double realizedError = -1.0;
  /// FM product rows deliberately left unmapped by an approximate mapper
  /// (ascending). Non-empty only on graded partial mappings: success stays
  /// false (the full FM was NOT realized), rowAssignment holds kUnassigned
  /// at these rows, and realizedError reports the exact functional cost.
  std::vector<std::size_t> droppedRows;

  /// The graded acceptance metric: the explicit realized error when
  /// measured, else the binary verdict (success = 0, failure = 1).
  double realizedErrorOrBinary() const {
    return realizedError >= 0.0 ? realizedError : (success ? 0.0 : 1.0);
  }
};

/// Check a claimed mapping: every required switch must land on a functional
/// crosspoint, and the CM rows must be pairwise distinct. The FM is placed
/// by the result's pair choice on the crossbar with @p spares.
bool verifyMapping(const FunctionMatrix& fm, const BitMatrix& cm, const MappingResult& result,
                   const RedundantCrossbarSpec& spares = {});

/// Check a graded partial mapping (success == false, droppedRows set):
/// every retained FM row must be assigned to a distinct fitting CM row, and
/// the unassigned rows must be exactly the declared droppedRows. The
/// physical half of the approx contract — the functional half (the
/// realizedError value) is checked against truth tables in src/approx.
/// verifyMapping is this check for a success with no dropped row.
bool verifyPartialMapping(const FunctionMatrix& fm, const BitMatrix& cm,
                          const MappingResult& result,
                          const RedundantCrossbarSpec& spares = {});

/// Interface of all defect-tolerant mappers.
class IMapper {
public:
  virtual ~IMapper() = default;
  virtual std::string name() const = 0;
  /// Map the FM onto the CM (cm.rows() >= fm.rows(), same column count
  /// unless the mapper documents otherwise).
  virtual MappingResult map(const FunctionMatrix& fm, const BitMatrix& cm) const = 0;
  /// Context-aware overload for the Monte Carlo engine. Mappers that can
  /// exploit per-experiment state (the incremental candidate adjacency)
  /// override it; the default ignores the context. Must return exactly what
  /// map(fm, cm) would — the context changes how the adjacency is built,
  /// never its content.
  virtual MappingResult map(const FunctionMatrix& fm, const BitMatrix& cm,
                            MappingContext& ctx) const {
    (void)ctx;
    return map(fm, cm);
  }
};

}  // namespace mcx
