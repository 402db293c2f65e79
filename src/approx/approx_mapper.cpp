#include "approx/approx_mapper.hpp"

#include <algorithm>
#include <sstream>

#include "approx/error.hpp"
#include "logic/truth_table.hpp"
#include "map/fast_exact_mapper.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"

namespace mcx {

namespace {

// Content hash of an FM (dims + bit words), FNV-1a. Collisions only risk
// serving a stale analysis for a *different* function, so the cache entry
// also pins the dims and the reconstructed cover is rebuilt on mismatch.
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

}  // namespace

struct ApproxMapper::FmAnalysis {
  std::uint64_t hash = 0;
  std::size_t rows = 0, cols = 0;
  Cover cover;
  TruthTable specTt;
  std::vector<DynBits> cubeTt;  // input-part truth table per product row
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
    if (it != cache_.end() && it->second->rows == fm.rows() && it->second->cols == fm.cols())
      return it->second;
  }

  auto analysis = std::make_shared<FmAnalysis>();
  analysis->hash = hash;
  analysis->rows = fm.rows();
  analysis->cols = fm.cols();
  analysis->cover = coverOfFunctionMatrix(fm);
  analysis->specTt = TruthTable::fromCover(analysis->cover);

  const Cover& cover = analysis->cover;
  const std::size_t products = cover.size();
  analysis->cubeTt.reserve(products);
  for (std::size_t i = 0; i < products; ++i)
    analysis->cubeTt.push_back(ttOfCube(cover.cube(i)));

  analysis->weight.assign(products, 0);
  const std::size_t nout = cover.nout();
  for (std::size_t o = 0; o < nout; ++o) {
    for (std::size_t i = 0; i < products; ++i) {
      if (!cover.cube(i).out(o)) continue;
      DynBits unique = analysis->cubeTt[i];
      for (std::size_t j = 0; j < products && unique.count() > 0; ++j)
        if (j != i && cover.cube(j).out(o)) unique.andNot(analysis->cubeTt[j]);
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
  cache_.emplace(hash, analysis);
  return analysis;
}

MappingResult ApproxMapper::map(const FunctionMatrix& fm, const BitMatrix& cm) const {
  MappingResult exact = inner_->map(fm, cm);
  if (exact.success) return exact;
  return rescue(fm, cm, buildCandidateAdjacency(fm.bits(), cm), std::move(exact));
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
  const std::size_t products = fm.numProductRows();
  const std::size_t nout = fm.numOutputRows();

  std::vector<std::size_t> rowOfCm(cm.rows(), MappingResult::kUnassigned);
  std::vector<std::size_t> cmOfRow(fm.rows(), MappingResult::kUnassigned);
  std::vector<unsigned char> visited(cm.rows(), 0);

  // One Kuhn augmenting pass for FM row r against the current matching.
  const auto augment = [&](std::size_t r) -> bool {
    std::fill(visited.begin(), visited.end(), 0);
    // Explicit DFS stack of (fmRow, next CM column to try).
    std::vector<std::pair<std::size_t, std::size_t>> stack{{r, 0}};
    // path[depth] = CM row taken at that depth, rebound on success.
    std::vector<std::size_t> path;
    while (!stack.empty()) {
      auto& [row, col] = stack.back();
      bool descended = false;
      for (; col < cm.rows(); ++col) {
        if (visited[col] || !adjacency.test(row, col)) continue;
        visited[col] = 1;
        path.resize(stack.size());
        path[stack.size() - 1] = col;
        const std::size_t occupant = rowOfCm[col];
        if (occupant == MappingResult::kUnassigned) {
          // Free CM row found: rebind the whole alternating path.
          for (std::size_t d = 0; d < stack.size(); ++d) {
            rowOfCm[path[d]] = stack[d].first;
            cmOfRow[stack[d].first] = path[d];
          }
          return true;
        }
        ++col;  // resume after this candidate when the branch dead-ends
        stack.emplace_back(occupant, 0);
        descended = true;
        break;
      }
      if (!descended) stack.pop_back();
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
    full.rowAssignment = std::move(cmOfRow);
    full.backtracks = innerFailure.backtracks;
    full.realizedError = 0.0;
    return full;
  }

  std::vector<std::size_t> retained;
  retained.reserve(products - dropped.size());
  for (std::size_t i = 0; i < products; ++i)
    if (cmOfRow[i] != MappingResult::kUnassigned) retained.push_back(i);
  const double err = approx::coverSubsetError(analysis->cover, retained).fraction();
  if (err > options_.epsilon) return innerFailure;

  std::sort(dropped.begin(), dropped.end());
  MappingResult partial;
  partial.success = false;
  partial.rowAssignment = std::move(cmOfRow);
  partial.droppedRows = std::move(dropped);
  partial.realizedError = err;
  partial.backtracks = innerFailure.backtracks;
  return partial;
}

}  // namespace mcx
