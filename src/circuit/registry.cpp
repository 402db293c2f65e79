#include "circuit/registry.hpp"

#include "benchdata/registry.hpp"
#include "util/error.hpp"

namespace mcx {

namespace {

std::string sourceWord(BenchmarkSource source) {
  switch (source) {
    case BenchmarkSource::Generated: return "generated exactly";
    case BenchmarkSource::Synthetic: return "synthetic stand-in";
    case BenchmarkSource::StructureSeeded: return "structure-seeded stand-in";
  }
  return "?";
}

CircuitSpec generatorPreset(const std::string& generatorId, const std::string& label) {
  CircuitSpec spec = circuitSourceSpec("gen:" + generatorId);
  spec.synth = CircuitSpec::Synth::Espresso;
  spec.label = label;
  return spec;
}

std::vector<CircuitPreset> makePresets() {
  std::vector<CircuitPreset> presets;
  // Every paper benchmark, under its registry name, with synth=none: the
  // source cover as benchdata builds it (the committed BENCH JSON counts
  // anchor these covers bit-identically).
  for (const BenchmarkInfo& info : paperBenchmarks()) {
    CircuitSpec spec;
    spec.source = CircuitSpec::Source::Registry;
    spec.name = info.name;
    std::string tables;
    if (info.inTable1) tables += " Table I";
    if (info.inTable2) tables += tables.empty() ? " Table II" : "+II";
    presets.push_back({info.name,
                       sourceWord(info.source) + ", I=" + std::to_string(info.inputs) +
                           " O=" + std::to_string(info.outputs) +
                           " P=" + std::to_string(info.products) + tables,
                       std::move(spec)});
  }
  // Espresso-polished generator functions (never the dual, unlike the
  // registry's sqrt8 row): the covers the multilevel defect suite and the
  // ablations run.
  presets.push_back({"rd53-min", "espresso-polished ISOP of the 5-input weight function",
                     generatorPreset("weight5", "rd53")});
  presets.push_back({"sqrt8-min", "espresso-polished ISOP of the 8-bit integer sqrt",
                     generatorPreset("sqrt8", "sqrt8")});
  presets.push_back({"majority7-min", "espresso-polished ISOP of the 7-input majority",
                     generatorPreset("majority7", "majority-7")});
  // Error-tolerant NN workload axis: binarized sign-neuron layers whose
  // quality degrades gracefully with wrong minterms (the approx subsystem's
  // natural benchmark; see logic/generators.hpp nnLayerFunction).
  presets.push_back({"nn-small", "espresso-polished 6-input 3-neuron binarized NN layer",
                     generatorPreset("nn-6x3", "nn-6x3")});
  presets.push_back({"nn-wide", "espresso-polished 8-input 4-neuron binarized NN layer",
                     generatorPreset("nn-8x4", "nn-8x4")});
  {
    CircuitSpec fig5 = circuitSourceSpec("sop:x1 + x2 + x3 + x4 + x5 x6 x7 x8");
    fig5.label = "fig5";
    presets.push_back(
        {"fig5", "the paper's running example f = x1+x2+x3+x4+x5x6x7x8 (Figs. 3/5)",
         std::move(fig5)});
  }
  return presets;
}

}  // namespace

const std::vector<CircuitPreset>& circuitPresets() {
  static const std::vector<CircuitPreset> presets = makePresets();
  return presets;
}

const CircuitPreset* findCircuitPreset(const std::string& name) {
  for (const CircuitPreset& preset : circuitPresets())
    if (preset.name == name) return &preset;
  return nullptr;
}

namespace {

std::string knownPresetNames() {
  std::string known;
  for (const CircuitPreset& preset : circuitPresets()) {
    if (!known.empty()) known += ", ";
    known += preset.name;
  }
  return known;
}

/// Resolve a "circuit" string: preset name first, then the prefixed source
/// forms. Bare names that match nothing get the full preset list.
CircuitSpec resolveSource(const std::string& source) {
  if (const CircuitPreset* preset = findCircuitPreset(source)) return preset->spec;
  if (source.starts_with("file:") || source.starts_with("pla:") ||
      source.starts_with("sop:") || source.starts_with("gen:"))
    return circuitSourceSpec(source);
  throw ParseError("unknown circuit \"" + source + "\" (known presets: " +
                   knownPresetNames() + "; or a file:/pla:/sop:/gen: source, "
                   "or a JSON spec)");
}

CircuitSpec readCircuitSpec(const SpecValue& spec) {
  if (spec.kind == SpecValue::Kind::String) return makeCircuitSpec(spec.string);
  if (!spec.isObject())
    throw ParseError("circuit: expected a preset name, a source or a JSON object");
  requireOnlyKeys(spec, "circuit",
                  {"circuit", "synth", "realize", "factoring", "maxFanin", "label"});

  const std::string source = spec.stringOr("circuit", "");
  if (source.empty()) throw ParseError("circuit: missing \"circuit\" member");
  CircuitSpec result = resolveSource(source);

  if (spec.find("synth") != nullptr)
    result.synth = synthFromString(spec.stringOr("synth", ""));
  if (spec.find("realize") != nullptr) {
    result.realize = realizeFromString(spec.stringOr("realize", ""));
    result.realizeExplicit = true;
  }
  if (spec.find("factoring") != nullptr) {
    result.factoring = factoringFromString(spec.stringOr("factoring", ""));
    result.factoringExplicit = true;
  }
  // Integrality matters: 0.5 truncated to 0 = unbounded would silently
  // compile a different circuit than declared.
  result.maxFanin = spec.integerOr("maxFanin", result.maxFanin, 0, 1000000);
  if (spec.find("label") != nullptr) result.label = spec.stringOr("label", "");
  return result;
}

}  // namespace

CircuitSpec circuitSpecFromSpec(const SpecValue& spec) {
  return readInContext("circuit", [&] { return readCircuitSpec(spec); });
}

CircuitSpec makeCircuitSpec(const std::string& nameOrSpec) {
  if (const std::optional<SpecValue> spec = inlineSpec(nameOrSpec))
    return circuitSpecFromSpec(*spec);
  return resolveSource(nameOrSpec);
}

}  // namespace mcx
