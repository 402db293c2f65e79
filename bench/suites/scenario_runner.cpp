// Declarative defect-scenario sweep: model x rate-grid x crossbar size
// through the parallel Monte Carlo engine.
//
// One BENCH grid with the HBA mapper: every cell runs the threads sweep
// (1/2/4/hw) and asserts bit-identical outcomes — the engine's determinism
// contract must hold for every DefectModel, not just the paper's i.i.d.
// world. Results are emitted as machine-readable JSON (--json, default
// BENCH_scenarios.json). Each cell also carries the analytic
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
// src/scenario/registry.hpp for the spec grammar).
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "api/driver.hpp"
#include "grid.hpp"
#include "mc/yield_model.hpp"
#include "scenario/registry.hpp"
#include "scenario/spec.hpp"
#include "util/error.hpp"
#include "util/text_table.hpp"

namespace {

using namespace mcx;

/// A scenario declaration as the grid runs it: a preset name walks the
/// rate axis; anything else must be a JSON model spec (validated here,
/// throwing with the preset list).
std::string scenarioDecl(const std::string& name) {
  if (findScenarioPreset(name) == nullptr) static_cast<void>(makeScenario(name));
  return name;
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

void applySweepSpec(bench::Grid& grid, const std::string& text) {
  const SpecValue spec = parseSpec(text);
  MCX_REQUIRE(spec.isObject(), "--sweep: expected a JSON object");
  for (const auto& [key, value] : spec.members)
    MCX_REQUIRE(key == "scenarios" || key == "rates" || key == "circuits" ||
                    key == "samples" || key == "seed",
                "--sweep: unknown member \"" + key + "\"");
  if (const SpecValue* scenarios = spec.find("scenarios")) {
    MCX_REQUIRE(scenarios->isArray(), "--sweep: \"scenarios\" must be an array");
    grid.scenarios.clear();
    for (const SpecValue& s : scenarios->array) {
      if (s.kind == SpecValue::Kind::String) {
        grid.scenarios.push_back(scenarioDecl(s.string));
      } else {
        static_cast<void>(modelFromSpec(s));
        grid.scenarios.push_back(specText(s));
      }
    }
  }
  if (const SpecValue* rates = spec.find("rates")) {
    MCX_REQUIRE(rates->isArray(), "--sweep: \"rates\" must be an array");
    grid.rates.clear();
    for (const SpecValue& r : rates->array) {
      MCX_REQUIRE(r.kind == SpecValue::Kind::Number,
                  "--sweep: \"rates\" entries must be numbers");
      grid.rates.push_back(r.number);
    }
  }
  if (const SpecValue* circuits = spec.find("circuits")) {
    MCX_REQUIRE(circuits->isArray(), "--sweep: \"circuits\" must be an array");
    grid.circuits.clear();
    for (const SpecValue& c : circuits->array) {
      MCX_REQUIRE(c.kind == SpecValue::Kind::String,
                  "--sweep: \"circuits\" entries must be strings");
      grid.circuits.push_back(c.string);
    }
  }
  // Validate before the unsigned casts: a negative count would be undefined
  // behaviour, and a seed above 2^53 would silently round through double.
  const double samples = spec.numberOr("samples", static_cast<double>(grid.samples));
  MCX_REQUIRE(samples >= 0.0 && samples <= 1e9, "--sweep: \"samples\" out of range");
  grid.samples = static_cast<std::size_t>(samples);
  const double seed = spec.numberOr("seed", static_cast<double>(grid.seed));
  MCX_REQUIRE(seed >= 0.0 && seed <= 9007199254740992.0,  // 2^53
              "--sweep: \"seed\" must be an integer below 2^53");
  grid.seed = static_cast<std::uint64_t>(seed);
}

int runScenarios(const std::vector<std::string>& args) {
  bench::Grid grid;
  grid.bench = "scenario_runner";
  grid.circuits = {"rd53", "misex1"};
  grid.mappers = {"hba"};
  grid.samples = 60;
  grid.seed = 0x5ce7a210;
  bench::CommonOptions common;

  cli::ArgParser parser("mcx_bench scenarios",
                        "declarative defect-scenario sweep: model x rate x circuit");
  common.addSamplesTo(parser);
  common.addSeedTo(parser);
  common.addJsonTo(parser);
  parser.addCallback("--scenarios", "a,b,...", "preset names / JSON specs to sweep",
                     [&grid](const std::string& value) {
                       grid.scenarios.clear();
                       for (const std::string& name : splitList(value))
                         grid.scenarios.push_back(scenarioDecl(name));
                     });
  parser.addCallback("--rates", "r1,r2,...", "defect-rate grid",
                     [&grid](const std::string& value) {
                       grid.rates.clear();
                       for (const std::string& r : splitList(value)) {
                         double rate{};
                         const auto [end, ec] =
                             std::from_chars(r.data(), r.data() + r.size(), rate);
                         MCX_REQUIRE(ec == std::errc() && end == r.data() + r.size(),
                                     "--rates: bad value \"" + r + "\"");
                         grid.rates.push_back(rate);
                       }
                     });
  parser.addCallback("--circuits", "c1,c2,...",
                     "circuit declarations to sweep (presets or file:/pla:/sop:/gen: specs)",
                     [&grid](const std::string& value) { grid.circuits = splitList(value); });
  parser.addCallback("--spec", "JSON", "add one inline scenario spec to the sweep",
                     [&grid](const std::string& value) {
                       grid.scenarios.push_back(scenarioDecl(value));
                     });
  parser.addCallback("--sweep", "JSON", "whole sweep as one JSON document",
                     [&grid](const std::string& value) { applySweepSpec(grid, value); });
  parser.addAction("--list", "list the scenario presets", bench::listScenarios);
  if (const auto code = bench::parseSuiteArgs(parser, args)) return *code;

  // Explicit flags beat --sweep members beat the defaults.
  if (common.samples.has_value()) grid.samples = *common.samples;
  if (common.seed.has_value()) grid.seed = *common.seed;
  grid.json = common.jsonOr("BENCH_scenarios.json");

  if (grid.scenarios.empty())
    for (const ScenarioPreset& preset : scenarioPresets()) grid.scenarios.push_back(preset.name);
  if (grid.rates.empty()) grid.rates = standardRateGrid();

  std::cout << "scenario sweep: " << grid.scenarios.size() << " models x "
            << grid.rates.size() << " rates x " << grid.circuits.size() << " circuits, "
            << grid.samples << " samples per cell (seed " << grid.seed << ")\n\n";

  std::vector<bench::Cell> cells = bench::runGrid(grid);
  TextTable table({"circuit", "scenario", "rate", "Psucc", "analytic iid", "mean ms", "det"});
  for (bench::Cell& cell : cells) {
    // A fixed (JSON-spec) scenario has no rate: no analytic estimate either.
    const bool fixed = !cell.rate.has_value();
    const double analytic =
        fixed ? std::nan("") : estimateYield(cell.circuit->fm, *cell.rate).successProbability;
    cell.columns = {{"analytic_iid_estimate", analytic}};
    table.addRow({cell.circuitDecl, fixed ? cell.result.scenario : cell.scenario,
                  fixed ? std::string("-") : TextTable::percent(*cell.rate),
                  TextTable::percent(cell.result.successRate()),
                  fixed ? std::string("-") : TextTable::percent(analytic),
                  TextTable::num(cell.result.meanSeconds() * 1e3, 3),
                  cell.deterministic ? "yes" : "NO"});
  }
  bench::writeGridJson(grid, cells);

  const bool deterministic = bench::allDeterministic(cells);
  std::cout << table << "\n";
  std::cout << "analytic iid = closed-form estimate assuming independent defects: it\n"
               "tracks Psucc under paper-iid and diverges under clustered/lines/gradient\n"
               "(correlated damage breaks the independence assumption).\n";
  std::cout << "deterministic across the threads sweep for every cell: "
            << (deterministic ? "yes" : "NO") << "; JSON written to " << *grid.json << "\n";
  return deterministic ? 0 : 1;
}

}  // namespace

MCX_BENCH_SUITE("scenarios",
                "defect-scenario sweep with per-cell determinism checks (BENCH_scenarios)",
                runScenarios);
