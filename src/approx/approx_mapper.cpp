#include "approx/approx_mapper.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <sstream>

#include "logic/truth_table.hpp"
#include "map/fast_exact_mapper.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"

namespace mcx {

namespace {

// Content hash of an FM (dims + bit words), FNV-1a: the analysis cache's
// bucket key. A hit is confirmed by comparing the FM content itself, so a
// collision costs a rebuild, never a stale analysis.
std::uint64_t fmContentHash(const FunctionMatrix& fm) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(fm.rows());
  mix(fm.cols());
  mix(fm.nin());
  for (std::size_t r = 0; r < fm.rows(); ++r)
    for (const BitMatrix::Word w : fm.bits().rowWords(r)) mix(w);
  return h;
}

// Inverse of buildFunctionMatrix for two-level matrices: product row i has a
// 1 on colOfPosLiteral(v) / colOfNegLiteral(v) per literal and on
// colOfOutput(o) per asserted output.
Cover coverOfFunctionMatrix(const FunctionMatrix& fm) {
  Cover cover(fm.nin(), fm.numOutputRows());
  for (std::size_t r = 0; r < fm.numProductRows(); ++r) {
    Cube c(fm.nin(), fm.numOutputRows());
    for (std::size_t v = 0; v < fm.nin(); ++v) {
      const bool pos = fm.bits().test(r, fm.colOfPosLiteral(v));
      const bool neg = fm.bits().test(r, fm.colOfNegLiteral(v));
      MCX_REQUIRE(!(pos && neg), "approx: FM row asserts both polarities of a variable");
      if (pos) c.setLit(v, Lit::Pos);
      if (neg) c.setLit(v, Lit::Neg);
    }
    for (std::size_t o = 0; o < fm.numOutputRows(); ++o)
      if (fm.bits().test(r, fm.colOfOutput(o))) c.setOut(o);
    cover.add(std::move(c));
  }
  return cover;
}

// Per-thread scratch of the rescue's matching and error tally, reused
// across samples so an augmenting pass allocates nothing.
struct RescueScratch {
  std::vector<std::size_t> rowOfCm;  // FM row matched to each CM row
  std::vector<std::size_t> cmOfRow;  // CM row matched to each FM row
  std::vector<BitMatrix::Word> unvisited;
  // DFS frames: (FM row, next CM column to try).
  std::vector<std::pair<std::size_t, std::size_t>> stack;
  std::vector<DynBits::Word> realized;  // one output's retained-cube OR
};
thread_local RescueScratch rescueScratch;

}  // namespace

struct ApproxMapper::FmAnalysis {
  // The analyzed FM's content (bits and input count fix the layout).
  BitMatrix bits;
  std::size_t nin = 0;
  Cover cover;
  TruthTable specTt;
  std::vector<DynBits> cubeTt;  // input-part truth table per product row
  // rowsOfOutput[o] = product rows asserting output o, ascending.
  std::vector<std::vector<std::size_t>> rowsOfOutput;
  // weight[i] = care (minterm, output) pairs only product row i covers —
  // what the spec loses outright if row i alone is dropped.
  std::vector<std::uint64_t> weight;
  // Product rows in rescue order: descending weight, ties ascending index
  // (deterministic across platforms).
  std::vector<std::size_t> order;
};

ApproxMapper::ApproxMapper(const ApproxMapperOptions& options,
                           std::shared_ptr<const IMapper> inner)
    : options_(options),
      inner_(inner ? std::move(inner) : std::make_shared<FastExactMapper>()) {
  MCX_REQUIRE(options_.epsilon >= 0.0 && options_.epsilon <= 1.0,
              "ApproxMapper: epsilon must be in [0, 1]");
}

std::string ApproxMapper::name() const {
  std::ostringstream out;
  out << "approx(" << inner_->name() << ", eps=" << options_.epsilon << ")";
  return out.str();
}

std::shared_ptr<const ApproxMapper::FmAnalysis> ApproxMapper::analyze(
    const FunctionMatrix& fm) const {
  const std::uint64_t hash = fmContentHash(fm);
  {
    std::lock_guard<std::mutex> lock(cacheMutex_);
    const auto it = cache_.find(hash);
    if (it != cache_.end() && it->second->nin == fm.nin() && it->second->bits == fm.bits())
      return it->second;
  }

  auto analysis = std::make_shared<FmAnalysis>();
  analysis->bits = fm.bits();
  analysis->nin = fm.nin();
  analysis->cover = coverOfFunctionMatrix(fm);
  analysis->specTt = TruthTable::fromCover(analysis->cover);

  const Cover& cover = analysis->cover;
  const std::size_t products = cover.size();
  analysis->cubeTt.reserve(products);
  for (std::size_t i = 0; i < products; ++i)
    analysis->cubeTt.push_back(ttOfCube(cover.cube(i)));

  const std::size_t nout = cover.nout();
  analysis->rowsOfOutput.resize(nout);
  for (std::size_t o = 0; o < nout; ++o)
    for (std::size_t i = 0; i < products; ++i)
      if (cover.cube(i).out(o)) analysis->rowsOfOutput[o].push_back(i);

  analysis->weight.assign(products, 0);
  for (const std::vector<std::size_t>& rows : analysis->rowsOfOutput) {
    for (const std::size_t i : rows) {
      DynBits unique = analysis->cubeTt[i];
      for (std::size_t k = 0; k < rows.size() && unique.count() > 0; ++k)
        if (rows[k] != i) unique.andNot(analysis->cubeTt[rows[k]]);
      analysis->weight[i] += unique.count();
    }
  }

  analysis->order.resize(products);
  for (std::size_t i = 0; i < products; ++i) analysis->order[i] = i;
  std::stable_sort(analysis->order.begin(), analysis->order.end(),
                   [&w = analysis->weight](std::size_t a, std::size_t b) {
                     return w[a] > w[b];
                   });

  std::lock_guard<std::mutex> lock(cacheMutex_);
  // Unbounded growth guard: an experiment uses one FM, so anything beyond a
  // handful of entries is churn from ad-hoc callers.
  if (cache_.size() >= 32) cache_.clear();
  cache_.insert_or_assign(hash, analysis);
  return analysis;
}

MappingResult ApproxMapper::map(const FunctionMatrix& fm, const BitMatrix& cm,
                                MappingContext& ctx) const {
  MappingResult exact = inner_->map(fm, cm, ctx);
  if (exact.success) return exact;
  return rescue(fm, cm, ctx.candidateAdjacency(fm.bits(), cm), std::move(exact));
}

MappingResult ApproxMapper::rescue(const FunctionMatrix& fm, const BitMatrix& cm,
                                   const BitMatrix& adjacency,
                                   MappingResult innerFailure) const {
  // Outside the graded scope (multi-level FM, truth tables too wide): the
  // sample stays a plain binary failure.
  if (fm.numConnectionCols() != 0 || fm.nin() > 16 || fm.rows() > cm.rows())
    return innerFailure;

  faultinject::onSite("approx.evaluate");

  const auto analysis = analyze(fm);
  const std::size_t nout = fm.numOutputRows();

  using Word = BitMatrix::Word;
  constexpr std::size_t kBits = BitMatrix::kWordBits;
  const std::size_t cmRows = cm.rows();
  const std::size_t cmWords = (cmRows + kBits - 1) / kBits;

  RescueScratch& sc = rescueScratch;
  sc.rowOfCm.assign(cmRows, MappingResult::kUnassigned);
  sc.cmOfRow.assign(fm.rows(), MappingResult::kUnassigned);

  // One Kuhn augmenting pass for FM row r against the current matching: a
  // DFS over CM columns in ascending order that skips visited columns and
  // resumes after the candidate it took, found word-parallel as the lowest
  // set bit of (adjacency row & unvisited) at or after the frame's resume
  // column. Each frame's last taken column is (resume - 1), so the stack is
  // also the alternating path rebound on reaching a free CM row.
  const auto augment = [&](std::size_t r) -> bool {
    sc.unvisited.assign(cmWords, ~Word{0});
    sc.unvisited.back() &= BitMatrix::tailMask(cmRows);
    sc.stack.clear();
    sc.stack.emplace_back(r, 0);
    while (!sc.stack.empty()) {
      auto& [row, resume] = sc.stack.back();
      const Word* adj = adjacency.rowWords(row).data();
      std::size_t w = resume / kBits;
      Word cand = 0;
      if (resume < cmRows) {
        cand = adj[w] & sc.unvisited[w] & (~Word{0} << (resume % kBits));
        while (cand == 0 && ++w < cmWords) cand = adj[w] & sc.unvisited[w];
      }
      if (cand == 0) {
        sc.stack.pop_back();
        continue;
      }
      const std::size_t col = w * kBits + static_cast<std::size_t>(std::countr_zero(cand));
      sc.unvisited[w] &= ~(Word{1} << (col % kBits));
      resume = col + 1;
      const std::size_t occupant = sc.rowOfCm[col];
      if (occupant == MappingResult::kUnassigned) {
        for (const auto& [fmRow, after] : sc.stack) {
          sc.rowOfCm[after - 1] = fmRow;
          sc.cmOfRow[fmRow] = after - 1;
        }
        return true;
      }
      sc.stack.emplace_back(occupant, 0);
    }
    return false;
  };

  // Output rows are mandatory: a function with a dead output latch has no
  // graded value (the paper's crossbar cannot read the output at all).
  for (std::size_t o = 0; o < nout; ++o)
    if (!augment(fm.rowOfOutput(o))) return innerFailure;

  // Product rows, heaviest first. Matchable row subsets form a transversal
  // matroid over the candidate adjacency, so greedy-by-weight with
  // augmenting paths lands on a maximum-weight matchable subset.
  std::vector<std::size_t> dropped;
  for (const std::size_t r : analysis->order)
    if (!augment(r)) dropped.push_back(r);

  if (dropped.empty()) {
    // The inner mapper failed but a full matching exists (possible only for
    // heuristic inners like HBA): promote to a plain exact success.
    MappingResult full;
    full.success = true;
    full.rowAssignment = sc.cmOfRow;
    full.backtracks = innerFailure.backtracks;
    full.realizedError = 0.0;
    return full;
  }

  // Realized error from the memoized tables: per output, the OR of the
  // retained cubes' truth tables against the spec's, as care-pair counts
  // (no don't-cares) — what the functional-error test oracle reports.
  const TruthTable& spec = analysis->specTt;
  std::size_t wrong = 0;
  for (std::size_t o = 0; o < nout; ++o) {
    const std::span<const Word> want = spec.bits(o).words();
    sc.realized.assign(want.size(), 0);
    for (const std::size_t i : analysis->rowsOfOutput[o]) {
      if (sc.cmOfRow[i] == MappingResult::kUnassigned) continue;
      const std::span<const Word> cube = analysis->cubeTt[i].words();
      for (std::size_t k = 0; k < cube.size(); ++k) sc.realized[k] |= cube[k];
    }
    for (std::size_t k = 0; k < want.size(); ++k)
      wrong += static_cast<std::size_t>(std::popcount(sc.realized[k] ^ want[k]));
  }
  const std::size_t care = nout * spec.numMinterms();
  const double err =
      care == 0 ? 0.0 : static_cast<double>(wrong) / static_cast<double>(care);
  if (err > options_.epsilon) return innerFailure;

  std::sort(dropped.begin(), dropped.end());
  MappingResult partial;
  partial.success = false;
  partial.rowAssignment = sc.cmOfRow;
  partial.droppedRows = std::move(dropped);
  partial.realizedError = err;
  partial.backtracks = innerFailure.backtracks;
  return partial;
}

}  // namespace mcx
