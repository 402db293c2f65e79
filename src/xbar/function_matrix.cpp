#include "xbar/function_matrix.hpp"

#include <vector>

#include "util/error.hpp"

namespace mcx {

FunctionMatrix::FunctionMatrix(std::size_t nin, std::size_t nout, std::size_t products,
                               std::size_t extraConnectionCols)
    : nin_(nin),
      nout_(nout),
      products_(products),
      conns_(extraConnectionCols),
      bits_(products + nout, 2 * nin + extraConnectionCols + 2 * nout) {}

std::size_t FunctionMatrix::colOfPosLiteral(std::size_t var) const {
  MCX_REQUIRE(var < nin_, "FunctionMatrix: bad variable");
  return var;
}

std::size_t FunctionMatrix::colOfNegLiteral(std::size_t var) const {
  MCX_REQUIRE(var < nin_, "FunctionMatrix: bad variable");
  return nin_ + var;
}

std::size_t FunctionMatrix::colOfConnection(std::size_t conn) const {
  MCX_REQUIRE(conn < conns_, "FunctionMatrix: bad connection column");
  return 2 * nin_ + conn;
}

std::size_t FunctionMatrix::colOfOutput(std::size_t o) const {
  MCX_REQUIRE(o < nout_, "FunctionMatrix: bad output");
  return 2 * nin_ + conns_ + o;
}

std::size_t FunctionMatrix::colOfOutputBar(std::size_t o) const {
  MCX_REQUIRE(o < nout_, "FunctionMatrix: bad output");
  return 2 * nin_ + conns_ + nout_ + o;
}

double FunctionMatrix::inclusionRatio() const {
  return mcx::inclusionRatio(usedSwitches(), dims());
}

FunctionMatrix::PairColumns FunctionMatrix::inputPairColumns(const RedundantCrossbarSpec& spares,
                                                             std::size_t p) const {
  const std::size_t pairs = nin_ + spares.spareInputPairs;
  MCX_REQUIRE(p < pairs, "FunctionMatrix: bad input pair");
  return {p, pairs + p};
}

FunctionMatrix::PairColumns FunctionMatrix::outputPairColumns(const RedundantCrossbarSpec& spares,
                                                              std::size_t q) const {
  MCX_REQUIRE(q < nout_ + spares.spareOutputPairs, "FunctionMatrix: bad output pair");
  const std::size_t spareBase = 2 * (nin_ + spares.spareInputPairs) + conns_;
  if (q >= nout_) return {spareBase + 2 * (q - nout_), spareBase + 2 * (q - nout_) + 1};
  const std::size_t outBase = spareBase + 2 * spares.spareOutputPairs;
  return {outBase + q, outBase + nout_ + q};
}

namespace {

/// Empty (each on its own pair), or @p need distinct pairs below @p available.
bool validPairs(const std::vector<std::size_t>& pairs, std::size_t need,
                std::size_t available) {
  if (pairs.empty()) return true;
  if (pairs.size() != need) return false;
  std::vector<char> used(available, 0);
  for (const std::size_t p : pairs) {
    if (p >= available || used[p] != 0) return false;
    used[p] = 1;
  }
  return true;
}

}  // namespace

FunctionMatrix FunctionMatrix::embedded(const RedundantCrossbarSpec& spares,
                                        const std::vector<std::size_t>& inputPairs,
                                        const std::vector<std::size_t>& outputPairs) const {
  MCX_REQUIRE(validPairs(inputPairs, nin_, nin_ + spares.spareInputPairs) &&
                  validPairs(outputPairs, nout_, nout_ + spares.spareOutputPairs),
              "FunctionMatrix::embedded: bad pair choice");
  FunctionMatrix r(nin_ + spares.spareInputPairs, nout_, products_,
                   conns_ + 2 * spares.spareOutputPairs);
  for (std::size_t row = 0; row < rows(); ++row) {
    for (std::size_t v = 0; v < nin_; ++v) {
      const PairColumns to = inputPairColumns(spares, inputPairs.empty() ? v : inputPairs[v]);
      if (bits_.test(row, colOfPosLiteral(v))) r.bits_.set(row, to.first);
      if (bits_.test(row, colOfNegLiteral(v))) r.bits_.set(row, to.second);
    }
    for (std::size_t c = 0; c < conns_; ++c)
      if (bits_.test(row, colOfConnection(c))) r.bits_.set(row, r.colOfConnection(c));
    for (std::size_t o = 0; o < nout_; ++o) {
      const PairColumns to = outputPairColumns(spares, outputPairs.empty() ? o : outputPairs[o]);
      if (bits_.test(row, colOfOutput(o))) r.bits_.set(row, to.first);
      if (bits_.test(row, colOfOutputBar(o))) r.bits_.set(row, to.second);
    }
  }
  return r;
}

FunctionMatrix FunctionMatrix::withInputPermutation(const std::vector<std::size_t>& perm) const {
  MCX_REQUIRE(perm.size() == nin_, "withInputPermutation: bad permutation size");
  return embedded({}, perm);
}

FunctionMatrix buildFunctionMatrix(const Cover& cover) {
  MCX_REQUIRE(!cover.empty() && cover.nout() > 0, "buildFunctionMatrix: empty cover");
  FunctionMatrix fm(cover.nin(), cover.nout(), cover.size(), 0);
  for (std::size_t i = 0; i < cover.size(); ++i) {
    const Cube& c = cover.cube(i);
    MCX_REQUIRE(!c.inputEmpty(), "buildFunctionMatrix: empty cube");
    for (std::size_t v = 0; v < cover.nin(); ++v) {
      switch (c.lit(v)) {
        case Lit::Pos: fm.bits().set(i, fm.colOfPosLiteral(v)); break;
        case Lit::Neg: fm.bits().set(i, fm.colOfNegLiteral(v)); break;
        default: break;
      }
    }
    c.outputBits().forEachSet([&](std::size_t o) { fm.bits().set(i, fm.colOfOutput(o)); });
  }
  for (std::size_t o = 0; o < cover.nout(); ++o) {
    fm.bits().set(fm.rowOfOutput(o), fm.colOfOutput(o));
    fm.bits().set(fm.rowOfOutput(o), fm.colOfOutputBar(o));
  }
  return fm;
}

}  // namespace mcx
