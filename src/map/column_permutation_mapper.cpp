#include "map/column_permutation_mapper.hpp"

#include <algorithm>
#include <numeric>

#include "util/error.hpp"

namespace mcx {

namespace {

/// All @p available pairs, the @p need with the fewest unusable crosspoints
/// over their two columns first (ties to the lower index), each part in
/// ascending order: the identity when there is no spare pair.
template <typename ColumnsOf>
std::vector<std::size_t> leastDefectiveFirst(const BitMatrix& cm, std::size_t need,
                                             std::size_t available, ColumnsOf columnsOf) {
  std::vector<std::size_t> pairs(available), unusable(available);
  std::iota(pairs.begin(), pairs.end(), std::size_t{0});
  if (need == available) return pairs;
  for (std::size_t p = 0; p < available; ++p) {
    const FunctionMatrix::PairColumns cols = columnsOf(p);
    unusable[p] = 2 * cm.rows() - cm.colCount(cols.first) - cm.colCount(cols.second);
  }
  std::stable_sort(pairs.begin(), pairs.end(),
                   [&](std::size_t a, std::size_t b) { return unusable[a] < unusable[b]; });
  const auto split = pairs.begin() + static_cast<std::ptrdiff_t>(need);
  std::sort(pairs.begin(), split);
  std::sort(split, pairs.end());
  return pairs;
}

}  // namespace

MappingResult ColumnPermutationMapper::map(const FunctionMatrix& fm, const BitMatrix& cm,
                                           MappingContext& ctx) const {
  const RedundantCrossbarSpec& spares = ctx.spares();
  MCX_REQUIRE(cm.cols() == redundantDims(fm, spares).cols,
              "ColumnPermutationMapper: CM width does not match the spare pairs");
  // Persistent pair orders: every attempt places the FM on their prefixes.
  std::vector<std::size_t> inPairs = leastDefectiveFirst(
      cm, fm.nin(), fm.nin() + spares.spareInputPairs,
      [&](std::size_t p) { return fm.inputPairColumns(spares, p); });
  std::vector<std::size_t> outPairs = leastDefectiveFirst(
      cm, fm.nout(), fm.nout() + spares.spareOutputPairs,
      [&](std::size_t q) { return fm.outputPairColumns(spares, q); });
  const bool shuffleOutputs = spares.spareOutputPairs > 0;
  std::vector<std::size_t> in, out;
  const auto attempt = [&] {
    in.assign(inPairs.begin(), inPairs.begin() + static_cast<std::ptrdiff_t>(fm.nin()));
    if (shuffleOutputs)
      out.assign(outPairs.begin(), outPairs.begin() + static_cast<std::ptrdiff_t>(fm.nout()));
    return inner_->map(fm.embedded(spares, in, out), cm, ctx);
  };

  MappingResult best = attempt();
  // A failure on the FM's own columns keeps the empty (identity) pair
  // choice; with spare pairs it names the pairs a partial mapping used.
  if (best.success || spares.hasSparePairs()) {
    best.inputPermutation = in;
    best.outputPairs = out;
  }
  if (best.success) return best;

  Rng rng(opts_.seed);
  for (std::size_t restart = 0; restart < opts_.restarts; ++restart) {
    rng.shuffle(inPairs);
    if (shuffleOutputs) rng.shuffle(outPairs);
    MappingResult r = attempt();
    best.backtracks += r.backtracks;
    if (r.success) {
      r.inputPermutation = in;
      r.outputPairs = out;
      r.backtracks = best.backtracks;
      return r;
    }
  }
  return best;
}

}  // namespace mcx
