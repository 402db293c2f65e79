// Crossbar area model of the paper.
//
// Two-level (NAND-AND) design: a cover with I inputs, O outputs and P
// products occupies rows = P + O (products, then one output-latch row per
// output) and cols = 2I + 2O (both input rails, then O and !O columns):
//   area = (P + O) * (2I + 2O).
// This is the formula implied by Tables I/II of the paper (e.g. rd53:
// (31+3)(10+6) = 544). Note: Fig. 3's prose counts one extra horizontal
// line (the input latch) and quotes 126 for the worked example; the tables
// — the actual evaluation — consistently exclude it, and so do we.
//
// Multi-level design: one row per NAND gate plus one per output; columns are
// both input rails, one multi-level connection column per gate that feeds
// another gate, and the output pairs:
//   area = (G + O) * (2I + C + 2O).
// The paper's Fig. 5 example (G=2, C=1, O=1) gives 3 x 19 = 57 (the text
// prints "59" with "3 horizontal and 19 vertical lines" — a typo).
#pragma once

#include <cstddef>

#include "logic/cover.hpp"
#include "netlist/nand_network.hpp"

namespace mcx {

struct CrossbarDims {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t area() const { return rows * cols; }

  bool operator==(const CrossbarDims&) const = default;
};

/// Spare lines beyond the optimum-size crossbar of a function matrix (the
/// paper's Section VI future work): rows, input pairs and output pairs.
struct RedundantCrossbarSpec {
  std::size_t spareRows = 0;
  std::size_t spareInputPairs = 0;
  std::size_t spareOutputPairs = 0;

  bool hasSparePairs() const { return spareInputPairs > 0 || spareOutputPairs > 0; }
};

class FunctionMatrix;

/// Physical dimensions of the redundant crossbar hosting @p fm (column
/// layout: FunctionMatrix::inputPairColumns / outputPairColumns).
CrossbarDims redundantDims(const FunctionMatrix& fm, const RedundantCrossbarSpec& spares);

/// Two-level dims from the (I, O, P) statistics.
CrossbarDims twoLevelDims(std::size_t nin, std::size_t nout, std::size_t products);
/// Two-level dims of a cover.
CrossbarDims twoLevelDims(const Cover& cover);

/// Multi-level statistics of a NAND network.
struct MultiLevelStats {
  std::size_t gates = 0;         ///< G
  std::size_t connections = 0;   ///< C: gates feeding other gates
  std::size_t outputs = 0;       ///< O
  std::size_t inputs = 0;        ///< I
};
MultiLevelStats multiLevelStats(const NandNetwork& net);
CrossbarDims multiLevelDims(const MultiLevelStats& stats);
CrossbarDims multiLevelDims(const NandNetwork& net);

/// Inclusion Ratio: used switches / crossbar area (the paper's IR metric).
double inclusionRatio(std::size_t usedSwitches, const CrossbarDims& dims);

}  // namespace mcx
