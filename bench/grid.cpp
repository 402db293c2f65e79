#include "grid.hpp"

#include <fstream>
#include <sstream>

#include "circuit/cache.hpp"
#include "circuit/registry.hpp"
#include "mc/executor.hpp"
#include "scenario/registry.hpp"
#include "scenario/spec.hpp"
#include "util/error.hpp"
#include "util/json_writer.hpp"

namespace mcx::bench {

std::vector<std::size_t> threadsSweep() {
  std::vector<std::size_t> sweep{1, 2, 4};
  const std::size_t hw = resolveThreadCount(0);
  if (hw > 4) sweep.push_back(hw);
  return sweep;
}

namespace {

bool rateScaled(const std::string& scenario) {
  return scenario == kLegacyScenarioDecl || findScenarioPreset(scenario) != nullptr;
}

bool sameOutcome(const DefectExperimentResult& a, const DefectExperimentResult& b) {
  if (a.successes != b.successes || a.mappings.size() != b.mappings.size()) return false;
  for (std::size_t s = 0; s < a.mappings.size(); ++s)
    if (a.mappings[s].rowAssignment != b.mappings[s].rowAssignment) return false;
  return true;
}

Cell runCell(const Grid& grid, const CircuitSpec& spec, Cell cell) {
  ExperimentBuilder builder;
  builder.circuit(spec)
      .mapper(cell.mapper)
      .samples(grid.samples)
      .seed(grid.seed + cell.spares.spareRows)
      .spares(cell.spares)
      .timePerSample(true)
      .keepMappings(grid.json.has_value());
  if (cell.scenario == kLegacyScenarioDecl)
    builder.legacyRates(*cell.rate);
  else if (cell.rate.has_value())
    builder.scenario(cell.scenario, *cell.rate);
  else
    builder.scenario(cell.scenario);

  const std::vector<std::size_t> threads =
      grid.json ? threadsSweep() : std::vector<std::size_t>{grid.threads};
  cell.result = builder.threads(threads.front()).run();
  for (std::size_t i = 1; i < threads.size(); ++i) {
    const ExperimentResult rerun = builder.threads(threads[i]).run();
    cell.reruns.push_back({threads[i], rerun.mcRunMillis / 1e3, rerun.outcome.successes,
                           rerun.outcome.perSampleMillis.mean});
    cell.deterministic = cell.deterministic && sameOutcome(cell.result.outcome, rerun.outcome);
  }
  return cell;
}

}  // namespace

std::vector<Cell> runGrid(const Grid& grid) {
  std::vector<Cell> cells;
  for (const std::string& decl : grid.circuits) {
    CircuitSpec spec = makeCircuitSpec(decl);
    if (grid.multiLevel.has_value())
      spec.realize = *grid.multiLevel ? CircuitSpec::Realize::MultiLevel
                                      : CircuitSpec::Realize::TwoLevel;
    const std::shared_ptr<const Circuit> circuit = compileCircuit(spec);
    for (const std::string& scenario : grid.scenarios) {
      std::vector<std::optional<double>> rates{std::nullopt};
      if (rateScaled(scenario)) rates.assign(grid.rates.begin(), grid.rates.end());
      for (const std::optional<double> rate : rates)
        for (const RedundantCrossbarSpec& spares : grid.spares)
          for (const std::string& mapper : grid.mappers) {
            Cell cell;
            cell.circuitDecl = decl;
            cell.mapper = mapper;
            cell.scenario = scenario;
            cell.rate = rate;
            cell.spares = spares;
            cell.circuit = circuit;
            cells.push_back(runCell(grid, spec, std::move(cell)));
          }
    }
  }
  return cells;
}

bool allDeterministic(const std::vector<Cell>& cells) {
  for (const Cell& cell : cells)
    if (!cell.deterministic) return false;
  return true;
}

void writeGridJson(const Grid& grid, const std::vector<Cell>& cells) {
  std::ostringstream buffer;
  JsonWriter json(buffer);
  json.beginObject();
  json.field("bench", grid.bench);
  json.field("hardware_concurrency", resolveThreadCount(0));
  json.key("cells").beginArray();
  for (const Cell& cell : cells) {
    json.beginObject();
    json.key("declaration").beginObject();
    json.field("circuit", cell.circuitDecl);
    json.field("realize", toString(cell.circuit->spec.realize));
    json.field("mapper", cell.mapper);
    json.field("scenario", cell.scenario);
    json.key("rate").raw(cell.rate ? specText(*cell.rate) : "null");
    json.field("spare_rows", cell.spares.spareRows);
    json.field("spare_input_pairs", cell.spares.spareInputPairs);
    json.field("spare_output_pairs", cell.spares.spareOutputPairs);
    json.field("samples", cell.result.config.samples);
    json.field("seed", cell.result.config.seed);
    json.endObject();
    json.key("result");
    cell.result.writeJson(json);
    json.key("reruns").beginArray();
    for (const CellRun& run : cell.reruns) {
      json.beginObject();
      json.field("threads", run.threads);
      json.field("wall_seconds", run.wallSeconds);
      json.field("successes", run.successes);
      json.field("mean_map_millis", run.meanMapMillis);
      json.endObject();
    }
    json.endArray();
    json.field("deterministic_across_threads", cell.deterministic);
    for (const auto& [name, value] : cell.columns) json.field(name, value);
    json.endObject();
  }
  json.endArray();
  json.field("all_deterministic", allDeterministic(cells));
  json.endObject();

  const std::string path = grid.json.value_or("");
  std::ofstream file(path);
  file << buffer.str() << "\n";
  file.flush();
  if (!file) throw Error("cannot write '" + path + "'");
}

}  // namespace mcx::bench
