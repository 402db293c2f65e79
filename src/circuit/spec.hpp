// CircuitSpec: the declarative front-end of the synthesis pipeline.
//
// The paper's experiments all start the same way — a two-level cover,
// optionally minimized, realized as a two-level or multi-level (factored
// NAND) crossbar. CircuitSpec captures that whole front-end as one typed
// declaration: where the cover comes from (benchmark registry, .pla file,
// inline PLA/SOP text, function generator, or a C++ Cover), which synthesis
// step to run (none / espresso / exact QM / ISOP round-trip) and how to
// realize it (two-level, or multi-level with factoring and fan-in knobs).
// circuit/pipeline.hpp compiles a spec into a Circuit artifact;
// circuit/registry.hpp resolves names and JSON specs; circuit/cache.hpp
// memoizes compilation by content.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "logic/cover.hpp"

namespace mcx {

struct CircuitSpec {
  /// Where the source cover comes from.
  enum class Source {
    Registry,   ///< paper benchmark registry (benchdata/registry.hpp)
    File,       ///< espresso-format .pla file ("file:path")
    InlinePla,  ///< inline PLA text ("pla:...")
    InlineSop,  ///< inline SOP expression ("sop:x1 x2 + !x3")
    Generator,  ///< mathematically defined function ("gen:weight5")
    Cover,      ///< explicit C++ Cover (not reachable from JSON)
  };
  /// Two-level synthesis step applied to the source cover.
  enum class Synth {
    None,      ///< use the source cover as-is
    Espresso,  ///< heuristic minimization
    Qm,        ///< exact Quine-McCluskey minimum per output (small arity)
    Isop,      ///< irredundant SOP via truth-table round-trip
  };
  enum class Realize { TwoLevel, MultiLevel };
  /// SOP -> NAND strategy (multi-level realizations only).
  enum class Factoring {
    Quick,   ///< literal-based quick factoring (mapToNand default)
    Flat,    ///< no factoring: flat NAND-NAND form
    Kernel,  ///< kernel-based good factoring
    Best,    ///< try all three, keep the smallest crossbar (mapToNandBest)
  };

  Source source = Source::Registry;
  std::string name;            ///< registry name, file path or generator id
  std::string text;            ///< inline PLA / SOP text
  std::optional<Cover> cover;  ///< Source::Cover payload
  Synth synth = Synth::None;
  Realize realize = Realize::TwoLevel;
  Factoring factoring = Factoring::Quick;
  std::size_t maxFanin = 0;    ///< NAND fan-in bound; 0 = unbounded
  std::string label;           ///< display label; empty = derived from source
  /// Set by the JSON parser when the member was explicitly present — lets
  /// tools distinguish a deliberate knob from the default without
  /// re-inspecting the document. Not part of the spec's identity.
  bool realizeExplicit = false;
  bool factoringExplicit = false;

  bool multiLevel() const { return realize == Realize::MultiLevel; }
  std::string defaultLabel() const;
  std::string displayLabel() const { return label.empty() ? defaultLabel() : label; }

  /// Canonical one-line declaration string: the spec's identity for display
  /// and memoization. Covers every knob except the label. NOTE: for File
  /// sources the file CONTENT is not part of canonical() — the memo cache
  /// folds it into the content key separately (circuitContentKey).
  std::string canonical() const;
  /// Identity of the synthesis stage only (source + synth, no realization):
  /// the memo key under which every realization variant of a declaration
  /// shares one synthesized cover.
  std::string synthCanonical() const;
};

// Enum <-> string helpers; the FromString parsers throw mcx::ParseError
// listing the valid values (a typo'd spec must not silently synthesize the
// wrong circuit).
std::string toString(CircuitSpec::Synth synth);
std::string toString(CircuitSpec::Realize realize);
std::string toString(CircuitSpec::Factoring factoring);
CircuitSpec::Synth synthFromString(const std::string& text);
CircuitSpec::Realize realizeFromString(const std::string& text);
CircuitSpec::Factoring factoringFromString(const std::string& text);

/// A validated generator id: family + size, e.g. "weight5" -> {weight, 5}.
/// Two-dimensional families (nn) carry a second size: "nn-8x4" ->
/// {family "nn-", size 8, size2 4}.
struct GeneratorId {
  std::string family;
  std::size_t size = 0;
  std::size_t size2 = 0;  ///< second dimension (nn outputs); 0 when unused
};

/// Parse and fully validate a generator id (the part after "gen:"): known
/// family (weight, sqrt, parity, majority, adder, nn-), positive size, and
/// an input count within the explicit-truth-table bound (1..16 inputs;
/// adder takes 2*size; nn-<nin>x<nout> bounds both dimensions eagerly).
/// Throws mcx::ParseError — the single source of truth for both
/// declaration-time validation and the pipeline's dispatch.
GeneratorId parseGeneratorId(const std::string& id);

/// Parse a prefixed source string into a spec with default synthesis and
/// realization:
///   "file:examples/data/adder.pla"  (must exist and be readable)
///   "pla:.i 2\n.o 1\n11 1\n.e"
///   "sop:x1 x2 + !x3"
///   "gen:weight5" | "gen:sqrt8" | "gen:parity4" | "gen:majority7" |
///   "gen:adder2" | "gen:nn-8x4"  (family + size; see logic/generators.hpp)
/// Unprefixed strings are Registry sources, NOT validated here — use
/// makeCircuitSpec (circuit/registry.hpp) to resolve preset/registry names
/// with a helpful error.
CircuitSpec circuitSourceSpec(const std::string& source);

}  // namespace mcx
