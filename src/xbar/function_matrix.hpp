// FunctionMatrix: the paper's FM — the required-switch pattern of a logic
// function on the crossbar, partitioned into minterm rows (FMm) and output
// rows (FMo).
//
// Column convention (Fig. 8): x1..xI, !x1..!xI, O1..Om, !O1..!Om.
// A product row has a 1 on the column of each literal and on column Oj for
// every output j that contains the product (the AND-plane switch that writes
// the product's NAND result into the output column). Output row j has 1s on
// Oj and !Oj (the output-latch switches).
#pragma once

#include <cstddef>

#include "logic/cover.hpp"
#include "netlist/nand_network.hpp"
#include "util/bit_matrix.hpp"
#include "xbar/area_model.hpp"

namespace mcx {

class FunctionMatrix {
public:
  FunctionMatrix() = default;
  FunctionMatrix(std::size_t nin, std::size_t nout, std::size_t products,
                 std::size_t extraConnectionCols);

  const BitMatrix& bits() const { return bits_; }
  BitMatrix& bits() { return bits_; }

  std::size_t rows() const { return bits_.rows(); }
  std::size_t cols() const { return bits_.cols(); }
  CrossbarDims dims() const { return {rows(), cols()}; }

  std::size_t nin() const { return nin_; }
  std::size_t nout() const { return nout_; }
  /// Number of minterm/gate rows (FMm). Output rows (FMo) follow.
  std::size_t numProductRows() const { return products_; }
  std::size_t numOutputRows() const { return nout_; }
  /// Multi-level connection columns (0 for two-level matrices).
  std::size_t numConnectionCols() const { return conns_; }

  // Column indices.
  std::size_t colOfPosLiteral(std::size_t var) const;
  std::size_t colOfNegLiteral(std::size_t var) const;
  std::size_t colOfConnection(std::size_t conn) const;
  std::size_t colOfOutput(std::size_t o) const;
  std::size_t colOfOutputBar(std::size_t o) const;

  /// Row index of output row @p o.
  std::size_t rowOfOutput(std::size_t o) const { return products_ + o; }

  /// Number of required active switches (the IR numerator).
  std::size_t usedSwitches() const { return bits_.count(); }
  double inclusionRatio() const;

  /// The two columns of a physical line pair: (x, !x) or (O, !O).
  struct PairColumns {
    std::size_t first = 0;
    std::size_t second = 0;
  };

  /// Columns of physical input pair @p p and output pair @p q on the
  /// redundant crossbar redundantDims(*this, spares), laid out as
  /// FunctionMatrix(nin + spare input pairs, nout, products, connections +
  /// 2 * spare output pairs): output pair q < nout is output q's own pair,
  /// spare output pair nout + k the adjacent columns (2k, 2k + 1) after the
  /// connection columns. With no spare pairs: this FM's own layout.
  PairColumns inputPairColumns(const RedundantCrossbarSpec& spares, std::size_t p) const;
  PairColumns outputPairColumns(const RedundantCrossbarSpec& spares, std::size_t q) const;

  /// This FM placed on that crossbar: variable v on input pair
  /// inputPairs[v], output o on output pair outputPairs[o] (empty = each on
  /// its own pair; otherwise distinct, in-range pairs). Rows are unchanged,
  /// so a row mapper runs on the result against the wide CM directly.
  FunctionMatrix embedded(const RedundantCrossbarSpec& spares,
                          const std::vector<std::size_t>& inputPairs,
                          const std::vector<std::size_t>& outputPairs = {}) const;

  /// Permute the input variables: variable v uses the column pair of
  /// position perm[v] (embedded with no spares).
  FunctionMatrix withInputPermutation(const std::vector<std::size_t>& perm) const;

private:
  std::size_t nin_ = 0;
  std::size_t nout_ = 0;
  std::size_t products_ = 0;
  std::size_t conns_ = 0;
  BitMatrix bits_;
};

/// Two-level FM of a cover (rows: cover cubes in order, then outputs).
FunctionMatrix buildFunctionMatrix(const Cover& cover);

}  // namespace mcx
