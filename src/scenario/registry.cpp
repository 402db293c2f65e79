#include "scenario/registry.hpp"

#include "util/error.hpp"

namespace mcx {

namespace {

/// A preset at @p rate. A rate outside the family's domain (the gradient's
/// edge is 1.5 x rate) is a ParseError naming the preset, not the model
/// constructor's precondition text.
std::shared_ptr<const DefectModel> buildPreset(const ScenarioPreset& preset, double rate) {
  try {
    return preset.make(rate);
  } catch (const InvalidArgument&) {
    throw ParseError("scenario \"" + preset.name + "\" is undefined at rate " +
                     specText(rate));
  }
}

std::shared_ptr<const DefectModel> makeClustered(double rate) {
  // Expected visited cells per cluster is 1 / (1 - spread); pick the seed
  // density so the expected defective fraction matches the budget. (Walk
  // revisits make the realized fraction slightly lower — acceptable for a
  // severity knob.)
  ClusteredDefects::Params p;
  p.spread = 0.85;
  p.clusterDensity = rate * (1.0 - p.spread);
  p.stuckClosedShare = 0.05;
  return std::make_shared<ClusteredDefects>(p);
}

std::shared_ptr<const DefectModel> makeLines(double rate) {
  LineCorrelated::Params p;
  p.rowStuckClosedRate = rate;
  p.colStuckClosedRate = rate / 2.0;
  return std::make_shared<LineCorrelated>(p);
}

std::shared_ptr<const DefectModel> makeGradient(double rate) {
  // Linear ramp whose mean over the array is roughly the budget: the mean
  // normalized radial distance is ~0.5, so center + (edge-center)/2 ~ rate.
  RadialGradient::Params p;
  p.centerRate = rate / 2.0;
  p.edgeRate = rate * 1.5;
  return std::make_shared<RadialGradient>(p);
}

std::shared_ptr<const DefectModel> makeComposite(double rate) {
  // Clustered permanents, occasional whole-line failures, and an i.i.d.
  // "upset" layer — the transient fault pattern of src/sim/transient_faults
  // frozen into the sample's map — split the budget.
  return std::make_shared<CompositeModel>(
      "fab+upsets",
      std::vector<std::shared_ptr<const DefectModel>>{
          makeClustered(rate / 2.0),
          makeLines(rate / 10.0),
          std::make_shared<SparseIidBernoulli>(rate / 2.0, 0.0),
      });
}

}  // namespace

const std::vector<ScenarioPreset>& scenarioPresets() {
  static const std::vector<ScenarioPreset> presets = {
      // The i.i.d. presets run the O(defects) sparse sampler: same
      // distribution as the paper's sweep, different stream. The
      // draw-for-draw legacy anchor is IidBernoulli (the builder's legacyRates).
      {"paper-iid", "the paper's model: i.i.d. stuck-open only (Tables II-III)",
       [](double rate) { return std::make_shared<SparseIidBernoulli>(rate, 0.0); }},
      {"iid-mixed", "i.i.d. with 10% of defects stuck-closed (line poisoning)",
       [](double rate) {
         return std::make_shared<SparseIidBernoulli>(rate * 0.9, rate * 0.1);
       }},
      {"clustered", "particle clusters: geometric random-walk blobs", makeClustered},
      {"lines", "whole-line failures: stuck-closed rows/columns", makeLines},
      {"gradient", "wafer-edge radial ramp of the stuck-open rate", makeGradient},
      {"composite", "clustered permanents + line failures + frozen i.i.d. upsets",
       makeComposite},
  };
  return presets;
}

const ScenarioPreset* findScenarioPreset(const std::string& name) {
  for (const ScenarioPreset& preset : scenarioPresets())
    if (preset.name == name) return &preset;
  return nullptr;
}

std::pair<double, double> iidRatesFromSpec(const SpecValue& spec, double openFallback) {
  const double open = spec.numberOr("open", openFallback, 0.0, 1.0);
  const double closed = spec.numberOr("closed", 0.0, 0.0, 1.0);
  if (open + closed > 1.0)
    throw ParseError("members \"open\" + \"closed\" must not exceed 1");
  return {open, closed};
}

std::shared_ptr<const DefectModel> modelFromSpec(const SpecValue& spec, double rate) {
  if (spec.kind == SpecValue::Kind::String) return makeScenario(spec.string, rate);
  if (!spec.isObject())
    throw ParseError("scenario spec: expected a preset name or a JSON object");

  if (const SpecValue* preset = spec.find("preset")) {
    requireOnlyKeys(spec, "scenario spec", {"preset", "rate"});
    if (preset->kind != SpecValue::Kind::String)
      throw ParseError("scenario spec: \"preset\" must be a string");
    const ScenarioPreset* found = findScenarioPreset(preset->string);
    if (found == nullptr)
      throw ParseError("scenario spec: unknown preset \"" + preset->string + "\"");
    return buildPreset(*found, spec.numberOr("rate", 0.10, 0.0, 1.0));
  }

  const std::string model = spec.stringOr("model", "");
  if (model == "iid" || model == "iid-sparse") {
    requireOnlyKeys(spec, "scenario spec", {"model", "open", "closed"});
    const auto [open, closed] = iidRatesFromSpec(spec, 0.10);
    if (model == "iid") return std::make_shared<IidBernoulli>(open, closed);
    return std::make_shared<SparseIidBernoulli>(open, closed);
  }
  if (model == "clustered") {
    requireOnlyKeys(spec, "scenario spec", {"model", "density", "spread", "closedShare"});
    ClusteredDefects::Params p;
    p.clusterDensity = spec.numberOr("density", p.clusterDensity, 0.0, 1.0);
    p.spread = spec.numberOr("spread", p.spread);
    if (!(p.spread >= 0.0 && p.spread < 1.0))  // at 1 a cluster never stops growing
      throw ParseError("member \"spread\" must be a number in [0, 1)");
    p.stuckClosedShare = spec.numberOr("closedShare", p.stuckClosedShare, 0.0, 1.0);
    return std::make_shared<ClusteredDefects>(p);
  }
  if (model == "lines") {
    requireOnlyKeys(spec, "scenario spec",
                    {"model", "rowClosed", "colClosed", "rowOpen", "colOpen"});
    LineCorrelated::Params p;
    p.rowStuckClosedRate = spec.numberOr("rowClosed", 0.0, 0.0, 1.0);
    p.colStuckClosedRate = spec.numberOr("colClosed", 0.0, 0.0, 1.0);
    p.rowStuckOpenRate = spec.numberOr("rowOpen", 0.0, 0.0, 1.0);
    p.colStuckOpenRate = spec.numberOr("colOpen", 0.0, 0.0, 1.0);
    return std::make_shared<LineCorrelated>(p);
  }
  if (model == "gradient") {
    requireOnlyKeys(spec, "scenario spec", {"model", "center", "edge", "closedShare"});
    RadialGradient::Params p;
    p.centerRate = spec.numberOr("center", p.centerRate, 0.0, 1.0);
    p.edgeRate = spec.numberOr("edge", p.edgeRate, 0.0, 1.0);
    p.stuckClosedShare = spec.numberOr("closedShare", p.stuckClosedShare, 0.0, 1.0);
    return std::make_shared<RadialGradient>(p);
  }
  if (model == "composite") {
    requireOnlyKeys(spec, "scenario spec", {"model", "label", "parts"});
    const SpecValue* parts = spec.find("parts");
    if (parts == nullptr || !parts->isArray() || parts->array.empty())
      throw ParseError("scenario spec: composite needs a non-empty \"parts\" array");
    std::vector<std::shared_ptr<const DefectModel>> built;
    built.reserve(parts->array.size());
    for (const SpecValue& part : parts->array) built.push_back(modelFromSpec(part));
    return std::make_shared<CompositeModel>(spec.stringOr("label", "composite"),
                                            std::move(built));
  }
  throw ParseError("scenario spec: unknown model \"" + model + "\"");
}

std::shared_ptr<const DefectModel> makeScenario(const std::string& nameOrSpec, double rate) {
  if (const std::optional<SpecValue> spec = inlineSpec(nameOrSpec)) return modelFromSpec(*spec);

  const ScenarioPreset* preset = findScenarioPreset(nameOrSpec);
  if (preset == nullptr) {
    std::string known;
    for (const ScenarioPreset& p : scenarioPresets()) {
      if (!known.empty()) known += ", ";
      known += p.name;
    }
    throw ParseError("unknown scenario \"" + nameOrSpec + "\" (known presets: " + known +
                     "; or pass a JSON spec)");
  }
  return buildPreset(*preset, rate);
}

const std::vector<double>& standardRateGrid() {
  static const std::vector<double> grid = {0.02, 0.05, 0.10, 0.15, 0.20, 0.30};
  return grid;
}

}  // namespace mcx
