// The paper's benchmark circuits (Tables I and II) as data.
//
// Each entry records the paper's published statistics (inputs, outputs,
// products, success rates where given) and how this library rebuilds the
// circuit: a generator id for the exactly generated functions, a recipe
// for the stand-ins (see benchdata/synthetic.hpp for the substitution
// policy). Nothing here minimizes: a paper circuit is compiled, and any
// synthesis step applied, by the circuit pipeline — compileCircuit(name)
// in circuit/cache.hpp.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "logic/cover.hpp"

namespace mcx {

enum class BenchmarkSource {
  Generated,      ///< mathematically defined, generated exactly
  Synthetic,      ///< random irredundant stand-in with the paper's (I, O, P)
  StructureSeeded ///< product-of-sums stand-in preserving factorability
};

struct BenchmarkInfo {
  std::string name;
  std::size_t inputs = 0;
  std::size_t outputs = 0;
  std::size_t products = 0;  ///< paper's P (Table II / derived from Table I)
  BenchmarkSource source = BenchmarkSource::Synthetic;
  std::string note;          ///< substitution / typo documentation

  // Paper-published reference values (when the table lists the circuit).
  std::optional<std::size_t> paperAreaTwoLevel;   ///< Table I/II area cost
  std::optional<double> paperIr;                   ///< Table II IR
  std::optional<double> paperPsuccHba;             ///< Table II HBA success
  std::optional<double> paperPsuccEa;              ///< Table II EA success
  bool paperUsedDual = false;                      ///< bold row in Table II
  bool inTable1 = false;
  bool inTable2 = false;
  /// Generated rows: the circuit pipeline's generator id ("weight5",
  /// "sqrt8"); the source cover is the ISOP of its truth table, of the
  /// complement when paperUsedDual. Empty for stand-ins.
  std::string generator;
};

/// All registered circuits, in paper order (Table II first, Table I extras
/// after).
const std::vector<BenchmarkInfo>& paperBenchmarks();

/// The entry named @p name. Throws InvalidArgument for unknown names.
const BenchmarkInfo& findBenchmark(const std::string& name);

/// A stand-in's source cover, built from its recipe to the paper's (I, O,
/// P) exactly. Throws InvalidArgument for unknown names and for Generated
/// rows, whose cover the pipeline derives from BenchmarkInfo::generator.
Cover standInCover(const std::string& name);

}  // namespace mcx
