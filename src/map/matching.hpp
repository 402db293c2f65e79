// Row matching between the function matrix (FM) and the crossbar matrix
// (CM), plus the mapper interface shared by HBA / EA / ablation variants.
//
// Matching rule (Section IV-B of the paper): an FM row can be placed on a CM
// row iff every 1 of the FM row (required active switch) falls on a 1 of the
// CM row (functional crosspoint). FM 0s (disabled switches) are compatible
// with both functional and stuck-open crosspoints. The rule depends on the
// CM alone, which already carries every defect's effect, so one kernel
// (buildCandidateAdjacency) builds every candidate adjacency from it;
// rowMatches stays for per-pair checks (first-fit, test references).
#pragma once

#include <cstddef>
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
/// fits CM row j (rowMatches), padding bits clear. Built once per defect
/// sample and shared by every downstream consumer (degree checks,
/// Hopcroft-Karp, cost-matrix construction).
///
/// One kernel builds every adjacency. It transposes the CM once, so that
/// row c of the transpose lists the CM rows functional at column c; FM row
/// i then fits exactly the CM rows functional at every column i requires,
/// i.e. the AND of those columns' transposed rows (all ones for an empty FM
/// row). That is the subset rule written column by column, at
/// O(fmOnes x cmRows/64) word ops after the 64x64 block transpose. Each
/// adjacency row accumulates in vector registers, in one pass per block of
/// a compile-time width of up to 16 words (1024 CM rows), and is stored
/// once. The stuck-closed poisoning of Section IV-A needs no special case:
/// the CM already carries it (crossbarMatrixInto).
BitMatrix buildCandidateAdjacency(const BitMatrix& fm, const BitMatrix& cm);

/// Per-worker scratch for the Monte Carlo mapping hot path: the reused
/// transpose and adjacency buffers of the candidate-adjacency kernel,
/// HybridMapper's per-attempt buffers, plus the spare lines of the crossbar
/// the CMs come from.
class MappingContext {
public:
  // Kept only for perfbench; delete in the next benchmark PR.
  void setSample(const DefectMap*, const DirtyRows*) {}

  /// Spare lines of the crossbar the CMs come from (the engine sets its
  /// config's): the column-assignment mapper lays out a wider CM by them.
  void setSpares(const RedundantCrossbarSpec& spares) { spares_ = spares; }
  const RedundantCrossbarSpec& spares() const { return spares_; }

  /// buildCandidateAdjacency(fm, cm) in a reused internal buffer (valid
  /// until the next call on this context).
  const BitMatrix& candidateAdjacency(const BitMatrix& fm, const BitMatrix& cm);

  /// HybridMapper's buffers, reused across its calls on this context;
  /// their contents mean nothing between calls.
  struct HbaScratch {
    std::vector<std::size_t> candidates;  ///< candidate CM rows per FM row
    std::vector<std::size_t> buckets;     ///< counting-sort offsets by candidate count
    std::vector<std::size_t> order;       ///< phase-1 row order
    std::vector<std::size_t> fmToCm, cmOwner;
    std::vector<BitMatrix::Word> free;  ///< unmatched CM rows
    BitMatrix sub;                      ///< phase 2: output rows x CM rows, unmatched only
  };
  HbaScratch& hbaScratch() { return hba_; }

private:
  RedundantCrossbarSpec spares_;
  HbaScratch hba_;
  BitMatrix cmT_;
  BitMatrix adjacency_;
};

/// The paper's "matching matrix" as a Munkres cost matrix: entry 0 where
/// the candidate adjacency bit is set (the FM row fits the CM row), 1
/// otherwise. A zero-cost perfect assignment is exactly a valid mapping.
CostMatrix buildMatchingMatrix(const BitMatrix& adjacency);

/// A solved 0/1 feasibility matching (the unweighted special case of the
/// paper's assignment problem).
struct FeasibleAssignment {
  bool success = false;
  /// assignment[i] = adjacency column matched to row i, when success.
  std::vector<std::size_t> assignment;
};

/// Decide the pure feasibility case via Hopcroft-Karp on the candidate
/// adjacency — O(E sqrt(V)) instead of Munkres' O(n^3). Two size-1 Hall
/// certificates fail before any solving, in one sweep over the rows: an FM
/// row with zero candidates, and candidates that together cover fewer CM
/// rows than there are FM rows (dead CM rows beyond the spares). Either
/// way Hopcroft-Karp would find no perfect matching, so the verdict is its
/// own. Munkres remains the solver for genuinely weighted cost matrices.
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
  /// unless the mapper documents otherwise). @p ctx supplies the reused
  /// adjacency buffers and the crossbar's spare lines; the result depends
  /// on the context's spares only, never on its buffers.
  virtual MappingResult map(const FunctionMatrix& fm, const BitMatrix& cm,
                            MappingContext& ctx) const = 0;
  /// map() on a fresh context (a crossbar without spare lines).
  MappingResult map(const FunctionMatrix& fm, const BitMatrix& cm) const {
    MappingContext ctx;
    return map(fm, cm, ctx);
  }
};

}  // namespace mcx
