// The one defect-sweep runner: every yield number the suites report is a
// paper-style Monte Carlo cell — circuit x scenario x rate x spare budget x
// mapper, with Psucc and Time as in Table II. A suite declares a Grid; the
// runner executes every cell as an ExperimentBuilder declaration and the
// suite turns the cells into its table.
//
// Fixed rules, the same for every grid:
//   - the cell seed is grid.seed + spares.spareRows;
//   - every cell times per sample (the paper's Time column);
//   - a fixed JSON-spec scenario has no rate (null in the JSON);
//   - a grid that writes a BENCH file runs every cell at each thread count
//     of threadsSweep() and checks success counts and row assignments;
//   - a grid that only prints a table runs every cell once at grid.threads.
//
// writeGridJson serializes the cells in one schema: each cell records the
// declaration it ran (replayable with no side table; the rate in round-trip
// form) next to its ExperimentResult::writeJson object, which is the first
// run, and the reruns at the sweep's other thread counts. The document is
// buffered and written only after the last cell, so a failed run never
// truncates a committed file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/experiment.hpp"
#include "circuit/pipeline.hpp"
#include "xbar/area_model.hpp"

namespace mcx::bench {

/// 1/2/4 threads, plus hardware concurrency when it exceeds 4.
std::vector<std::size_t> threadsSweep();

/// Scenario declaration of the paper's draw, ExperimentBuilder::legacyRates
/// at the cell's rate ("iid (legacy rates)", the bit-identity anchor).
inline const std::string kLegacyScenarioDecl = "legacy";

struct Grid {
  std::string bench;                  ///< the document's "bench" label
  std::vector<std::string> circuits;  ///< circuit declarations (makeCircuitSpec)
  std::optional<bool> multiLevel;     ///< realization override for every circuit
  /// Preset names and kLegacyScenarioDecl walk the rate axis; a JSON model
  /// spec ('{...}') is fixed and runs once with no rate.
  std::vector<std::string> scenarios;
  std::vector<double> rates;
  std::vector<RedundantCrossbarSpec> spares{RedundantCrossbarSpec{}};
  std::vector<std::string> mappers;   ///< mapper presets or JSON option specs
  std::size_t samples = 100;
  std::uint64_t seed = 1;
  std::size_t threads = 0;            ///< print-only grids; 0 = hardware
  /// Set for a BENCH grid (threads sweep, mappings kept, written by
  /// writeGridJson); unset for a print-only grid.
  std::optional<std::string> json;
};

struct CellRun {
  std::size_t threads = 0;
  double wallSeconds = 0;
  std::size_t successes = 0;
  double meanMapMillis = 0;
};

struct Cell {
  // The declaration.
  std::string circuitDecl;
  std::string mapper;
  std::string scenario;
  std::optional<double> rate;
  RedundantCrossbarSpec spares;
  /// The compiled circuit (memo-cache hit of the run's own compile).
  std::shared_ptr<const Circuit> circuit;
  /// The first run: threads = 1 in a sweep, grid.threads otherwise.
  ExperimentResult result;
  /// The sweep's runs at its other thread counts (empty when print-only).
  std::vector<CellRun> reruns;
  bool deterministic = true;
  /// Suite columns appended to the cell's JSON (NaN is written as null).
  std::vector<std::pair<std::string, double>> columns;
};

/// Executes every cell, in declaration order: circuit, scenario, rate,
/// spares, mapper — the last axis fastest.
std::vector<Cell> runGrid(const Grid& grid);

bool allDeterministic(const std::vector<Cell>& cells);

/// Writes the cells as one BENCH document to *grid.json; throws mcx::Error
/// when the file cannot be written, an empty path included (the driver
/// reports it and exits 2).
void writeGridJson(const Grid& grid, const std::vector<Cell>& cells);

}  // namespace mcx::bench
