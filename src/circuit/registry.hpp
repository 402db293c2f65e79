// Circuit registry: named circuit presets and JSON spec parsing.
//
// The third leg of the registry triad (scenario/registry.hpp for defect
// models, map/registry.hpp for mappers): every circuit the experiments use
// is constructible from a name ("bw", "rd53-min", ...) or a small JSON
// spec, so a whole workload — circuit x mapper x scenario — is one
// declaration. Presets cover every paper benchmark (Tables I and II) plus
// the espresso-polished generated functions the reproduction suites run.
#pragma once

#include <string>
#include <vector>

#include "circuit/spec.hpp"
#include "scenario/spec.hpp"

namespace mcx {

struct CircuitPreset {
  std::string name;
  std::string summary;
  CircuitSpec spec;
};

/// All registered presets, in presentation order (paper benchmarks first,
/// derived presets after).
const std::vector<CircuitPreset>& circuitPresets();

/// Preset lookup by name; nullptr when unknown.
const CircuitPreset* findCircuitPreset(const std::string& name);

/// Build a spec from a JSON document:
///   {"circuit": "file:examples/data/adder.pla", "synth": "espresso",
///    "realize": "multilevel", "factoring": "kernel", "maxFanin": 4,
///    "label": "adder"}
/// "circuit" is a preset name or a prefixed source string (file:/pla:/sop:/
/// gen:, see circuitSourceSpec); the remaining members override the base
/// declaration; "maxFanin" is an integer in [0, 1e6]. A string value
/// resolves as makeCircuitSpec. Throws mcx::ParseError on unknown members
/// or values.
CircuitSpec circuitSpecFromSpec(const SpecValue& spec);

/// Resolve a circuit string: a preset name ("bw"), a prefixed source
/// ("file:adder.pla", "gen:weight5", ...) or, when the string starts with
/// '{', a JSON spec (inlineSpec). Throws mcx::ParseError listing the known
/// presets when the name resolves to nothing.
CircuitSpec makeCircuitSpec(const std::string& nameOrSpec);

}  // namespace mcx
