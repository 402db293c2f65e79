// Ablation A9: heuristic optimality gap against the exact verdict.
//
// Runs every heuristic mapper variant and both exact solvers on the SAME
// per-sample defect maps (one runDefectExperiment per mapper at the same
// seed: the engine pre-splits one RNG stream per sample, so every mapper
// sees bit-identical crossbars) and compares the verdicts sample by sample,
// reporting per circuit x defect rate how far each heuristic's yield falls
// short of the exact verdict. Two invariants are enforced, not just
// reported:
//
//   * the exact verdict — fast-ea, Hopcroft-Karp on the candidate
//     adjacency — must equal the paper's EA (ea-munkres, a zero-cost
//     Munkres assignment on the full matching matrix) on every sample: two
//     independent exact algorithms must agree, and
//   * every heuristic success must be an exact success (a heuristic
//     mapping an unmappable sample would be a soundness bug — zero
//     tolerance).
//
// Any invariant violation prints loudly and fails the suite (exit 1),
// which also turns the CTest smoke run into a cross-check of the two exact
// solvers against the matching heuristics on real circuit workloads.
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "api/driver.hpp"
#include "circuit/cache.hpp"
#include "map/registry.hpp"
#include "mc/defect_experiment.hpp"
#include "util/json_writer.hpp"
#include "util/text_table.hpp"

namespace {

int runOptimality(const std::vector<std::string>& args) {
  using namespace mcx;

  bench::CommonOptions common;
  cli::ArgParser parser("mcx_bench ablation-optimality",
                        "A9: exact verdict vs heuristic mappers on identical samples");
  common.addSamplesTo(parser);
  common.addSeedTo(parser);
  common.addJsonTo(parser);
  if (const auto code = bench::parseSuiteArgs(parser, args)) return *code;

  const std::size_t samples = common.samplesOr(100);
  const std::uint64_t seed = common.seedOr(0xc0ffee);
  const std::string jsonPath = common.jsonOr("BENCH_optimality.json");

  const std::vector<std::string> heuristics = {"greedy", "hba-nobt", "hba"};

  std::ostringstream jsonBuffer;
  JsonWriter json(jsonBuffer);
  json.beginObject();
  json.field("bench", "ablation-optimality");
  json.field("samples", static_cast<std::uint64_t>(samples));
  json.field("seed", seed);
  json.key("cells").beginArray();

  TextTable table({"circuit", "rate", "exact", "Greedy", "HBA-nobt", "HBA", "contradict"});
  std::size_t totalContradictions = 0;
  std::size_t exactMismatches = 0;
  std::size_t nonzeroGapCells = 0;

  for (const char* circuitName : {"rd53", "sao2"}) {
    const std::shared_ptr<const Circuit> circuit = compileCircuit(circuitName);
    for (const double rate : {0.05, 0.10, 0.15}) {
      DefectExperimentConfig config;
      config.samples = samples;
      config.seed = seed;
      config.model = std::make_shared<IidBernoulli>(rate);
      config.keepMappings = true;
      const auto verdicts = [&](const std::string& mapper) {
        return runDefectExperiment(circuit->fm, *makeMapper(mapper), config).mappings;
      };
      const std::vector<MappingResult> exact = verdicts("fast-ea");
      const std::vector<MappingResult> munkres = verdicts("ea-munkres");

      std::size_t exactOk = 0;
      std::size_t cellMismatches = 0;
      for (std::size_t s = 0; s < samples; ++s) {
        if (exact[s].success) ++exactOk;
        if (munkres[s].success != exact[s].success) ++cellMismatches;
      }
      std::vector<std::size_t> heurOk(heuristics.size(), 0);
      std::vector<std::size_t> heurContradictions(heuristics.size(), 0);
      for (std::size_t h = 0; h < heuristics.size(); ++h) {
        const std::vector<MappingResult> heuristic = verdicts(heuristics[h]);
        for (std::size_t s = 0; s < samples; ++s) {
          if (!heuristic[s].success) continue;
          ++heurOk[h];
          if (!exact[s].success) ++heurContradictions[h];
        }
      }

      json.beginObject();
      json.field("circuit", circuitName);
      json.field("rate", rate);
      json.field("exact_successes", static_cast<std::uint64_t>(exactOk));
      json.field("munkres_mismatches", static_cast<std::uint64_t>(cellMismatches));
      json.key("mappers").beginArray();
      std::vector<std::string> row{circuitName, TextTable::percent(rate),
                                   std::to_string(exactOk) + "/" + std::to_string(samples)};
      std::size_t cellContradictions = 0;
      bool cellHasGap = false;
      for (std::size_t h = 0; h < heuristics.size(); ++h) {
        const std::size_t gap = exactOk - heurOk[h];
        if (gap > 0) cellHasGap = true;
        cellContradictions += heurContradictions[h];
        json.beginObject();
        json.field("name", heuristics[h]);
        json.field("successes", static_cast<std::uint64_t>(heurOk[h]));
        json.field("gap", static_cast<std::uint64_t>(gap));
        json.field("contradictions", static_cast<std::uint64_t>(heurContradictions[h]));
        json.endObject();
        row.push_back(std::to_string(heurOk[h]) + " (gap " + std::to_string(gap) + ")");
      }
      json.endArray();
      json.endObject();
      row.push_back(std::to_string(cellContradictions));
      table.addRow(std::move(row));
      totalContradictions += cellContradictions;
      exactMismatches += cellMismatches;
      if (cellHasGap) ++nonzeroGapCells;
    }
  }

  json.endArray();
  json.field("total_contradictions", static_cast<std::uint64_t>(totalContradictions));
  json.field("exact_mismatches", static_cast<std::uint64_t>(exactMismatches));
  json.field("nonzero_gap_cells", static_cast<std::uint64_t>(nonzeroGapCells));
  json.endObject();
  bench::writeJsonFile(jsonPath, jsonBuffer.str());

  std::cout << "Optimality gap vs exact verdict (" << samples
            << " samples per cell, identical defect maps across mappers)\n\n";
  std::cout << table << "\n";
  std::cout << "exact = Hopcroft-Karp verdict, cross-checked sample by sample against the\n"
               "paper's Munkres EA; gap N = samples proven mappable that the heuristic\n"
               "missed; contradict = heuristic successes on exactly unmappable samples\n"
               "(must be 0).\n";
  std::cout << "json: " << jsonPath << "\n";

  if (totalContradictions != 0 || exactMismatches != 0) {
    std::cout << "FAIL: " << totalContradictions << " heuristic success(es) on unmappable samples, "
              << exactMismatches << " Hopcroft-Karp/Munkres mismatch(es)\n";
    return 1;
  }
  return 0;
}

}  // namespace

MCX_BENCH_SUITE("ablation-optimality", "A9: exact-vs-heuristic yield gap (HK + Munkres)",
                runOptimality);
