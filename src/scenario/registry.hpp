// Scenario registry: named defect-scenario presets and JSON spec parsing.
//
// A preset is a rate-scalable model family — make(rate) builds the model
// with its overall defect budget set to `rate` (the fraction of crosspoints
// expected to be defective, or the per-line failure probability for the
// line-correlated family). This lets one declarative sweep walk every
// family across a common rate grid. Arbitrary parameterizations come in
// through JSON specs (see modelFromSpec).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "scenario/defect_model.hpp"
#include "scenario/spec.hpp"

namespace mcx {

struct ScenarioPreset {
  std::string name;
  std::string summary;
  /// Build the family's model at overall defect budget @p rate.
  std::function<std::shared_ptr<const DefectModel>(double rate)> make;
};

/// All registered presets, in presentation order. Guaranteed to cover every
/// DefectModel implementation (iid, clustered, lines, gradient, composite).
const std::vector<ScenarioPreset>& scenarioPresets();

/// Preset lookup by name; nullptr when unknown.
const ScenarioPreset* findScenarioPreset(const std::string& name);

/// Build a model from a JSON spec:
///   {"model": "iid",       "open": 0.10, "closed": 0.0}
///   {"model": "iid-sparse", "open": 0.10, "closed": 0.0}   // O(defects) draw
///   {"model": "clustered", "density": 8e-4, "spread": 0.85, "closedShare": 0.1}
///   {"model": "lines",     "rowClosed": 0.05, "colClosed": 0.02,
///                          "rowOpen": 0.0, "colOpen": 0.0}
///   {"model": "gradient",  "center": 0.02, "edge": 0.30, "closedShare": 0.0}
///   {"model": "composite", "label": "...", "parts": [ <spec>, <spec>, ... ]}
///   {"preset": "clustered", "rate": 0.08}          // preset reference
///   "clustered"                                    // a string: makeScenario
/// Every rate, density, share and spread lies in [0, 1] (spread below 1),
/// and an i.i.d. pair's open + closed <= 1. A string value resolves as
/// makeScenario(string, @p rate); an object carries its own parameters
/// (a preset reference's "rate" defaults to 0.10). Throws mcx::ParseError
/// on malformed, unknown or out-of-range specs.
std::shared_ptr<const DefectModel> modelFromSpec(const SpecValue& spec, double rate = 0.10);

/// The i.i.d. "open"/"closed" pair of @p spec (a model spec or a serve
/// request's legacy pair): each in [0, 1], together at most 1; "open"
/// defaults to @p openFallback, "closed" to 0. Throws mcx::ParseError.
std::pair<double, double> iidRatesFromSpec(const SpecValue& spec, double openFallback);

/// Resolve a scenario string: a preset name ("paper-iid", built at
/// @p rate) or, when the string starts with '{', a JSON spec (in which case
/// @p rate is ignored — the spec carries its own parameters). Throws
/// mcx::ParseError on an unknown name, a bad spec, or a rate outside the
/// preset's domain.
std::shared_ptr<const DefectModel> makeScenario(const std::string& nameOrSpec,
                                                double rate = 0.10);

/// The defect-rate grid shared by the rate-sweep benches and the scenario
/// runner (previously copy-pasted per bench).
const std::vector<double>& standardRateGrid();

}  // namespace mcx
