#include "xbar/area_model.hpp"

#include "util/error.hpp"
#include "xbar/function_matrix.hpp"

namespace mcx {

CrossbarDims redundantDims(const FunctionMatrix& fm, const RedundantCrossbarSpec& spares) {
  return {fm.rows() + spares.spareRows,
          2 * (fm.nin() + spares.spareInputPairs) + fm.numConnectionCols() +
              2 * (fm.nout() + spares.spareOutputPairs)};
}

CrossbarDims twoLevelDims(std::size_t nin, std::size_t nout, std::size_t products) {
  MCX_REQUIRE(nin > 0 && nout > 0 && products > 0, "twoLevelDims: empty shape");
  return {products + nout, 2 * nin + 2 * nout};
}

CrossbarDims twoLevelDims(const Cover& cover) {
  return twoLevelDims(cover.nin(), cover.nout(), cover.size());
}

MultiLevelStats multiLevelStats(const NandNetwork& net) {
  MultiLevelStats s;
  s.gates = net.gateCount();
  s.connections = net.interconnectCount();
  s.outputs = net.numOutputs();
  s.inputs = net.numPis();
  return s;
}

CrossbarDims multiLevelDims(const MultiLevelStats& s) {
  MCX_REQUIRE(s.gates > 0 && s.outputs > 0, "multiLevelDims: empty network");
  return {s.gates + s.outputs, 2 * s.inputs + s.connections + 2 * s.outputs};
}

CrossbarDims multiLevelDims(const NandNetwork& net) {
  return multiLevelDims(multiLevelStats(net));
}

double inclusionRatio(std::size_t usedSwitches, const CrossbarDims& dims) {
  MCX_REQUIRE(dims.area() > 0, "inclusionRatio: empty crossbar");
  return static_cast<double>(usedSwitches) / static_cast<double>(dims.area());
}

}  // namespace mcx
