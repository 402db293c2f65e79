// Declarative defect-scenario sweep: model x rate-grid x crossbar size
// through the parallel Monte Carlo engine.
//
// Every cell of the sweep runs runDefectExperiment twice (1 and 2 worker
// threads) and asserts bit-identical outcomes — the engine's determinism
// contract must hold for every DefectModel, not just the paper's i.i.d.
// world. Results are emitted as machine-readable JSON (MCX_BENCH_JSON,
// default BENCH_scenarios.json). Each record also carries the analytic
// i.i.d. yield estimate (src/mc/yield_model.hpp) at the cell's rate: it
// tracks the Monte Carlo result under paper-iid and visibly diverges under
// the correlated models (clustering concentrates damage on few rows, line
// failures kill rows/columns outright — both break the independence
// assumption the closed form rests on).
//
// Usage:
//   mcx_bench scenarios [--samples N] [--seed S] [--scenarios a,b,...]
//                       [--rates r1,r2,...] [--circuits c1,c2,...]
//                       [--spec '<json model spec>'] [--sweep '<json sweep spec>']
//                       [--json PATH] [--list]
//
// --sweep takes the whole sweep as one JSON document:
//   {"scenarios": ["clustered", {"model": "lines", "rowClosed": 0.05}],
//    "rates": [0.02, 0.10], "circuits": ["rd53"], "samples": 100, "seed": 7}
// Scenario entries are preset names or inline model specs (see
// src/scenario/registry.hpp for the spec grammar). Env knobs MCX_SAMPLES
// and MCX_BENCH_JSON apply when the flags are absent.
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "api/driver.hpp"
#include "circuit/cache.hpp"
#include "circuit/registry.hpp"
#include "defect_sweep.hpp"
#include "map/hybrid_mapper.hpp"
#include "mc/yield_model.hpp"
#include "scenario/registry.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/text_table.hpp"

namespace {

using namespace mcx;

struct ScenarioEntry {
  std::string label;
  std::shared_ptr<const DefectModel> fixed;  ///< null = rate-scalable preset
  const ScenarioPreset* preset = nullptr;

  std::shared_ptr<const DefectModel> at(double rate) const {
    return fixed ? fixed : preset->make(rate);
  }
};

struct Sweep {
  std::vector<ScenarioEntry> scenarios;
  std::vector<double> rates;
  std::vector<std::string> circuits{"rd53", "misex1"};
  std::size_t samples = envSizeT("MCX_SAMPLES", 60);
  std::uint64_t seed = 0x5ce7a210;
};

ScenarioEntry entryFromName(const std::string& name) {
  ScenarioEntry entry;
  entry.label = name;
  const ScenarioPreset* preset = findScenarioPreset(name);
  if (preset != nullptr) {
    entry.preset = preset;
  } else {
    entry.fixed = makeScenario(name);  // JSON spec, or throws with the preset list
    entry.label = entry.fixed->describe();
  }
  return entry;
}

/// Comma-split that respects JSON nesting and string quoting: commas
/// inside {...} / [...] or "..." do not separate items, so inline
/// multi-member specs work in --scenarios and --circuits.
std::vector<std::string> splitList(const std::string& csv) {
  std::vector<std::string> out;
  std::string item;
  int depth = 0;
  bool inString = false, escaped = false;
  for (const char c : csv) {
    if (inString) {
      if (escaped) escaped = false;
      else if (c == '\\') escaped = true;
      else if (c == '"') inString = false;
    } else if (c == '"') {
      inString = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if ((c == '}' || c == ']') && depth > 0) {
      --depth;
    } else if (c == ',' && depth == 0) {
      if (!item.empty()) out.push_back(std::move(item));
      item.clear();
      continue;
    }
    item += c;
  }
  if (!item.empty()) out.push_back(std::move(item));
  return out;
}

void applySweepSpec(Sweep& sweep, const std::string& text) {
  const SpecValue spec = parseSpec(text);
  MCX_REQUIRE(spec.isObject(), "--sweep: expected a JSON object");
  for (const auto& [key, value] : spec.members)
    MCX_REQUIRE(key == "scenarios" || key == "rates" || key == "circuits" ||
                    key == "samples" || key == "seed",
                "--sweep: unknown member \"" + key + "\"");
  if (const SpecValue* scenarios = spec.find("scenarios")) {
    MCX_REQUIRE(scenarios->isArray(), "--sweep: \"scenarios\" must be an array");
    sweep.scenarios.clear();
    for (const SpecValue& s : scenarios->array) {
      if (s.kind == SpecValue::Kind::String) {
        sweep.scenarios.push_back(entryFromName(s.string));
      } else {
        ScenarioEntry entry;
        entry.fixed = modelFromSpec(s);
        entry.label = entry.fixed->describe();
        sweep.scenarios.push_back(std::move(entry));
      }
    }
  }
  if (const SpecValue* rates = spec.find("rates")) {
    MCX_REQUIRE(rates->isArray(), "--sweep: \"rates\" must be an array");
    sweep.rates.clear();
    for (const SpecValue& r : rates->array) {
      MCX_REQUIRE(r.kind == SpecValue::Kind::Number,
                  "--sweep: \"rates\" entries must be numbers");
      sweep.rates.push_back(r.number);
    }
  }
  if (const SpecValue* circuits = spec.find("circuits")) {
    MCX_REQUIRE(circuits->isArray(), "--sweep: \"circuits\" must be an array");
    sweep.circuits.clear();
    for (const SpecValue& c : circuits->array) {
      MCX_REQUIRE(c.kind == SpecValue::Kind::String,
                  "--sweep: \"circuits\" entries must be strings");
      sweep.circuits.push_back(c.string);
    }
  }
  // Validate before the unsigned casts: a negative count would be undefined
  // behaviour, and a seed above 2^53 would silently round through double.
  const double samples = spec.numberOr("samples", static_cast<double>(sweep.samples));
  MCX_REQUIRE(samples >= 0.0 && samples <= 1e9, "--sweep: \"samples\" out of range");
  sweep.samples = static_cast<std::size_t>(samples);
  const double seed = spec.numberOr("seed", static_cast<double>(sweep.seed));
  MCX_REQUIRE(seed >= 0.0 && seed <= 9007199254740992.0,  // 2^53
              "--sweep: \"seed\" must be an integer below 2^53");
  sweep.seed = static_cast<std::uint64_t>(seed);
}

/// Execute the sweep; returns the process exit code (0 = deterministic).
int runSweep(const Sweep& sweep, const std::string& jsonPath) {
  // Buffer the JSON and write the file only once the sweep has finished:
  // a mid-sweep error must not clobber a previously committed
  // BENCH_scenarios.json with a truncated document.
  std::ostringstream jsonBuffer;
  JsonWriter json(jsonBuffer);
  json.beginObject();
  json.field("bench", "scenario_runner");
  json.field("samples", sweep.samples);
  json.field("seed", sweep.seed);
  json.field("hardware_concurrency", resolveThreadCount(0));
  json.key("runs").beginArray();

  const HybridMapper mapper;
  TextTable table({"circuit", "scenario", "rate", "Psucc", "analytic iid", "mean ms", "det"});
  bool allDeterministic = true;

  for (const std::string& name : sweep.circuits) {
    // Circuit declarations through the memoized pipeline: a bare registry
    // name compiles its source cover with synth=none (the committed
    // BENCH_scenarios counts pin it), and any file:/pla:/sop:/gen:/JSON
    // spec sweeps too.
    const std::shared_ptr<const Circuit> circuit = compileCircuit(name);
    const FunctionMatrix& fm = circuit->fm;
    for (const ScenarioEntry& scenario : sweep.scenarios) {
      // A fixed (JSON-spec) entry carries its own parameters: running it
      // once per grid rate would duplicate identical experiments under
      // misleading rate labels. NaN marks the rate axis as not applicable
      // (the JSON writer emits it as null).
      const std::vector<double> rateAxis =
          scenario.fixed ? std::vector<double>{std::numeric_limits<double>::quiet_NaN()}
                         : sweep.rates;
      for (const double rate : rateAxis) {
        DefectExperimentConfig cfg;
        cfg.samples = sweep.samples;
        cfg.seed = sweep.seed;
        cfg.model = scenario.at(rate);
        cfg.keepMappings = true;

        cfg.threads = 1;
        const DefectExperimentResult reference = runDefectExperiment(fm, mapper, cfg);
        cfg.threads = 2;
        const DefectExperimentResult rerun = runDefectExperiment(fm, mapper, cfg);

        bool deterministic = reference.successes == rerun.successes;
        for (std::size_t s = 0; deterministic && s < reference.mappings.size(); ++s)
          deterministic =
              reference.mappings[s].rowAssignment == rerun.mappings[s].rowAssignment;
        allDeterministic = allDeterministic && deterministic;

        const double analytic =
            std::isnan(rate) ? rate : estimateYield(fm, rate).successProbability;

        json.beginObject();
        json.field("circuit", name);
        json.field("scenario", scenario.label);
        json.field("model", cfg.model->describe());
        json.field("rate", rate);
        json.field("area", fm.dims().area());
        json.field("successes", reference.successes);
        json.field("success_rate", reference.successRate());
        json.field("analytic_iid_estimate", analytic);
        // Wall time per sample (sampling + mapping + verify): the sweep
        // runs with per-sample timing off, sparing two clock reads per
        // sample on the hot path.
        json.field("mean_sample_millis", reference.meanSeconds() * 1e3);
        json.field("deterministic_across_threads", deterministic);
        json.endObject();

        table.addRow({name, scenario.label,
                      std::isnan(rate) ? std::string("-") : TextTable::percent(rate),
                      TextTable::percent(reference.successRate()),
                      std::isnan(rate) ? std::string("-") : TextTable::percent(analytic),
                      TextTable::num(reference.meanSeconds() * 1e3, 3),
                      deterministic ? "yes" : "NO"});
      }
    }
  }
  json.endArray();
  json.field("all_deterministic", allDeterministic);
  json.endObject();

  std::ofstream jsonFile(jsonPath);
  jsonFile << jsonBuffer.str() << "\n";
  jsonFile.flush();
  if (!jsonFile) {
    std::cerr << "scenario_runner: cannot write " << jsonPath << "\n";
    return 2;
  }

  std::cout << table << "\n";
  std::cout << "analytic iid = closed-form estimate assuming independent defects: it\n"
               "tracks Psucc under paper-iid and diverges under clustered/lines/gradient\n"
               "(correlated damage breaks the independence assumption).\n";
  std::cout << "deterministic across 1/2 threads for every cell: "
            << (allDeterministic ? "yes" : "NO") << "; JSON written to " << jsonPath << "\n";
  return allDeterministic ? 0 : 1;
}

int runScenarios(const std::vector<std::string>& args) {
  Sweep sweep;
  bench::CommonOptions common;

  cli::ArgParser parser("mcx_bench scenarios",
                        "declarative defect-scenario sweep: model x rate x circuit");
  common.addSamplesTo(parser);
  common.addSeedTo(parser);
  common.addJsonTo(parser);
  parser.addCallback("--scenarios", "a,b,...", "preset names / JSON specs to sweep",
                     [&sweep](const std::string& value) {
                       sweep.scenarios.clear();
                       for (const std::string& name : splitList(value))
                         sweep.scenarios.push_back(entryFromName(name));
                     });
  parser.addCallback("--rates", "r1,r2,...", "defect-rate grid",
                     [&sweep](const std::string& value) {
                       sweep.rates.clear();
                       for (const std::string& r : splitList(value)) {
                         double rate{};
                         const auto [end, ec] =
                             std::from_chars(r.data(), r.data() + r.size(), rate);
                         MCX_REQUIRE(ec == std::errc() && end == r.data() + r.size(),
                                     "--rates: bad value \"" + r + "\"");
                         sweep.rates.push_back(rate);
                       }
                     });
  parser.addCallback("--circuits", "c1,c2,...",
                     "circuit declarations to sweep (presets or file:/pla:/sop:/gen: specs)",
                     [&sweep](const std::string& value) { sweep.circuits = splitList(value); });
  parser.addCallback("--spec", "JSON", "add one inline scenario spec to the sweep",
                     [&sweep](const std::string& value) {
                       sweep.scenarios.push_back(entryFromName(value));
                     });
  parser.addCallback("--sweep", "JSON", "whole sweep as one JSON document",
                     [&sweep](const std::string& value) { applySweepSpec(sweep, value); });
  parser.addAction("--list", "list the scenario presets", bench::listScenarios);
  if (const auto code = bench::parseSuiteArgs(parser, args)) return *code;

  // Explicit flags beat --sweep members beat the env/default (the Sweep
  // initializer already folded MCX_SAMPLES in, so only a real flag wins).
  if (common.samples.has_value()) sweep.samples = *common.samples;
  if (common.seed.has_value()) sweep.seed = *common.seed;
  const std::string jsonPath = common.jsonOr("BENCH_scenarios.json");

  if (sweep.scenarios.empty())
    for (const ScenarioPreset& preset : scenarioPresets())
      sweep.scenarios.push_back(entryFromName(preset.name));
  if (sweep.rates.empty()) sweep.rates = standardRateGrid();

  std::cout << "scenario sweep: " << sweep.scenarios.size() << " models x "
            << sweep.rates.size() << " rates x " << sweep.circuits.size() << " circuits, "
            << sweep.samples << " samples per cell (seed " << sweep.seed << ")\n\n";

  try {
    return runSweep(sweep, jsonPath);
  } catch (const std::exception& e) {  // unknown circuit, out-of-range preset rate, ...
    std::cerr << "mcx_bench scenarios: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace

MCX_BENCH_SUITE("scenarios",
                "defect-scenario sweep with per-cell determinism checks (BENCH_scenarios)",
                runScenarios);
