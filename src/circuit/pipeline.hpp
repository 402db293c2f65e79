// The synthesis pipeline: compile a CircuitSpec into a Circuit artifact.
//
// A Circuit bundles everything the experiment layers consume — the
// post-synthesis cover, the crossbar FunctionMatrix, the multi-level layout
// (when realized multi-level) and the synthesis statistics. buildCircuit is
// the uncached compile; circuit/cache.hpp memoizes it by content so
// repeated experiments over the same declaration skip re-synthesis.
//
// This is the one front-end for the paper's circuits: a Registry spec's
// source cover comes from benchdata/registry.hpp (a generator's ISOP or a
// stand-in), and its synthesis step runs like any other source's. The
// committed BENCH_*.json success counts are the regression anchor of the
// covers it produces.
#pragma once

#include <optional>
#include <string>

#include "circuit/spec.hpp"
#include "logic/cover.hpp"
#include "xbar/function_matrix.hpp"
#include "xbar/multilevel_layout.hpp"

namespace mcx {

struct CircuitSynthStats {
  std::size_t sourceProducts = 0;  ///< P of the source cover, pre-synthesis
  std::size_t products = 0;        ///< P after the synthesis step
  double sourceMillis = 0.0;       ///< load/parse/generate time
  double synthMillis = 0.0;        ///< minimization time
  double realizeMillis = 0.0;      ///< crossbar realization time
};

/// The compiled artifact of a CircuitSpec.
struct Circuit {
  CircuitSpec spec;
  std::string label;
  Cover cover;  ///< post-synthesis cover (the FM's product rows, in order)
  Cover dc;     ///< source don't-care set (PLA sources; empty otherwise)
  FunctionMatrix fm;
  /// Realization metadata for multi-level circuits (gate network, row ->
  /// connection-column binding); nullopt for two-level realizations.
  std::optional<MultiLevelLayout> layout;
  CircuitSynthStats stats;

  CrossbarDims dims() const { return fm.dims(); }

  /// Approximate heap footprint of the artifact (covers, bit matrix,
  /// layout) — the cost the memo cache charges against its byte budget.
  /// An estimate, not an accounting: monotone in circuit size and within a
  /// small constant factor of the real allocation.
  std::size_t estimatedBytes() const;
};

/// Stage 1 of the pipeline — source + synthesis, no realization. This is
/// the expensive stage (file parse, espresso/QM/ISOP), and its identity is
/// CircuitSpec::synthCanonical(): every realization variant of the same
/// declaration shares one synthesized cover in the memo cache.
struct SynthesizedCover {
  Cover on;   ///< post-synthesis ON cover
  Cover dc;   ///< source don't-care set (PLA sources; empty otherwise)
  std::size_t sourceProducts = 0;
  double sourceMillis = 0.0;
  double synthMillis = 0.0;

  /// Approximate heap footprint (see Circuit::estimatedBytes).
  std::size_t estimatedBytes() const;
};
SynthesizedCover buildSynthesizedCover(const CircuitSpec& spec);

/// Stage 2 — realize a synthesized cover onto the crossbar per the spec's
/// realize/factoring/maxFanin knobs.
Circuit realizeCircuit(const CircuitSpec& spec, const SynthesizedCover& synthesized);

/// Compile a spec, uncached (both stages). Throws mcx::ParseError for
/// unparsable sources and for qm/isop beyond their input bounds (bad
/// client input), mcx::InvalidArgument for an unknown registry name.
Circuit buildCircuit(const CircuitSpec& spec);

}  // namespace mcx
