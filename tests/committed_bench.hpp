// Replay of the committed BENCH files.
//
// Every cell of a grid BENCH document (BENCH_defect_mc.json,
// BENCH_table2_defect_mc.json, BENCH_scenarios.json) records the
// declaration it ran — circuit, realization, mapper, scenario and rate,
// spares, samples and seed — so a test rebuilds any cell as an
// ExperimentBuilder from the cell alone and compares the committed counts.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "api/experiment.hpp"
#include "scenario/spec.hpp"

namespace mcx::committed {

/// Parse a committed file at the repository root (a test failure when it
/// is missing).
SpecValue load(const std::string& file);

/// The "cells" array of a grid BENCH document (empty, with a test failure,
/// when absent).
const std::vector<SpecValue>& cells(const SpecValue& doc);

/// The cell's "declaration" object.
const SpecValue& declaration(const SpecValue& cell);

/// The committed success count of the cell.
std::size_t successes(const SpecValue& cell);

/// The cell's declaration as a builder at threads(1); chain further knobs
/// (threads, pool, errorBudget, ...) before run().
ExperimentBuilder replay(const SpecValue& cell);

/// The first cell declaring @p circuit, @p mapper and @p scenario; nullptr
/// when the document has none.
const SpecValue* find(const SpecValue& doc, const std::string& circuit,
                      const std::string& mapper, const std::string& scenario);

}  // namespace mcx::committed
