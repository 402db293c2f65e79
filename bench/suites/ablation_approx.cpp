// Ablation A10: approximate mapping and functional yield(epsilon).
//
// Classical defect-map experiments are pass/fail: a sample either realizes
// the full function or it is dead. This suite replaces the verdict with a
// graded one — the approx mapper (inner fast-ea, sacrifice budget 1.0)
// reports every sample's exact realized error, and the suite derives the
// functional-yield curve yield(eps) = fraction of samples whose realized
// error is <= eps, over a fixed epsilon grid. Two invariants are enforced,
// not just reported:
//
//   * yield(0) must be bit-identical to the exact success count — the
//     graded path is a strict generalization of pass/fail (the rescue path
//     only ever runs after the inner exact mapper failed, and espresso
//     covers are irredundant, so every drop costs error > 0), and
//   * the curve must be monotone non-decreasing in epsilon (it counts a
//     nested family of events).
//
// The NN workload axis: binarized sign-neuron layers (gen:nn-<nin>x<nout>)
// degrade gracefully — a rescued sample loses a few minterms, i.e. a few
// misclassified input patterns — so the suite also emits an
// accuracy-vs-defect-rate table (accuracy = 1 - mean realized error) for
// the committed nn presets. Any invariant violation exits 1, turning the
// CTest smoke run into a regression check of the graded engine.
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "api/driver.hpp"
#include "api/experiment.hpp"
#include "util/json_writer.hpp"
#include "util/text_table.hpp"

namespace {

constexpr double kEpsilonGrid[] = {0.0, 0.01, 0.02, 0.05, 0.10, 0.20};

int runApprox(const std::vector<std::string>& args) {
  using namespace mcx;

  bench::CommonOptions common;
  cli::ArgParser parser("mcx_bench ablation-approx",
                        "A10: functional yield(eps) curves and NN accuracy vs defect rate");
  common.addSamplesTo(parser);
  common.addSeedTo(parser);
  common.addJsonTo(parser);
  if (const auto code = bench::parseSuiteArgs(parser, args)) return *code;

  const std::size_t samples = common.samplesOr(100);
  const std::uint64_t seed = common.seedOr(0xa99);
  const std::string jsonPath = common.jsonOr("BENCH_approx.json");

  const std::string approxSpec =
      R"({"mapper": "approx", "inner": "fast-ea", "epsilon": 1.0})";

  std::ostringstream jsonBuffer;
  JsonWriter json(jsonBuffer);
  json.beginObject();
  json.field("bench", "ablation-approx");
  json.field("samples", static_cast<std::uint64_t>(samples));
  json.field("seed", seed);
  json.key("epsilon_grid").beginArray();
  for (const double eps : kEpsilonGrid) json.value(eps);
  json.endArray();

  std::vector<std::string> yieldHeader{"circuit", "rate", "exact"};
  for (const double eps : kEpsilonGrid)
    yieldHeader.push_back("y(" + TextTable::percent(eps) + ")");
  yieldHeader.push_back("rescued");
  TextTable yieldTable(std::move(yieldHeader));

  std::size_t totalRescued = 0;
  std::size_t yieldZeroMismatches = 0;
  std::size_t monotonicityViolations = 0;

  // Per-sample realized errors of one graded run; shared by both tables.
  const auto runGraded = [&](const std::string& circuit, double rate) {
    return ExperimentBuilder()
        .circuit(circuit)
        .mapper(approxSpec)
        .legacyRates(rate)
        .samples(samples)
        .seed(seed)
        .errorBudget(1.0)
        .keepMappings(true)
        .run();
  };

  json.key("cells").beginArray();
  for (const char* circuitName : {"rd53-min", "sqrt8-min", "nn-small", "nn-wide"}) {
    for (const double rate : {0.15, 0.25}) {
      const ExperimentResult result = runGraded(circuitName, rate);
      std::vector<double> errors;
      errors.reserve(result.outcome.mappings.size());
      for (const MappingResult& m : result.outcome.mappings)
        errors.push_back(m.realizedErrorOrBinary());

      std::vector<std::size_t> yieldCounts;
      for (const double eps : kEpsilonGrid) {
        std::size_t ok = 0;
        for (const double e : errors)
          if (e <= eps) ++ok;
        yieldCounts.push_back(ok);
      }
      // yield(0) == exact successes: the graded path must reproduce the
      // classical verdict bit-for-bit at a zero budget.
      if (yieldCounts.front() != result.outcome.successes) ++yieldZeroMismatches;
      for (std::size_t i = 1; i < yieldCounts.size(); ++i)
        if (yieldCounts[i] < yieldCounts[i - 1]) ++monotonicityViolations;
      const std::size_t rescued = yieldCounts.back() - yieldCounts.front();
      totalRescued += result.outcome.rescued;

      json.beginObject();
      json.field("circuit", circuitName);
      json.field("rate", rate);
      json.field("rows", result.rows);
      json.field("cols", result.cols);
      json.field("successes", result.outcome.successes);
      json.field("rescued", result.outcome.rescued);
      json.field("mean_realized_error", result.meanRealizedError());
      json.key("yield").beginArray();
      for (const std::size_t count : yieldCounts) json.value(count);
      json.endArray();
      json.endObject();

      std::vector<std::string> row{circuitName, TextTable::percent(rate),
                                   std::to_string(result.outcome.successes) + "/" +
                                       std::to_string(samples)};
      for (const std::size_t count : yieldCounts) row.push_back(std::to_string(count));
      row.push_back(std::to_string(rescued));
      yieldTable.addRow(std::move(row));
    }
  }
  json.endArray();

  // The error-tolerant workload axis: classification accuracy of the NN
  // layers as the defect rate grows. Accuracy = 1 - mean realized error
  // (the fraction of (pattern, neuron) decisions the rescued crossbars get
  // right, exact successes counting as 1).
  TextTable nnTable({"circuit", "rate", "exact", "accuracy"});
  json.key("nn_accuracy").beginArray();
  for (const char* circuitName : {"nn-small", "nn-wide"}) {
    for (const double rate : {0.05, 0.10, 0.15, 0.20}) {
      const ExperimentResult result = runGraded(circuitName, rate);
      const double accuracy = 1.0 - result.meanRealizedError();
      json.beginObject();
      json.field("circuit", circuitName);
      json.field("rate", rate);
      json.field("successes", result.outcome.successes);
      json.field("rescued", result.outcome.rescued);
      json.field("accuracy", accuracy);
      json.endObject();
      nnTable.addRow({circuitName, TextTable::percent(rate),
                      std::to_string(result.outcome.successes) + "/" +
                          std::to_string(samples),
                      TextTable::percent(accuracy)});
    }
  }
  json.endArray();

  json.field("total_rescued", static_cast<std::uint64_t>(totalRescued));
  json.field("yield_zero_mismatches", static_cast<std::uint64_t>(yieldZeroMismatches));
  json.field("monotonicity_violations", static_cast<std::uint64_t>(monotonicityViolations));
  json.endObject();
  bench::writeJsonFile(jsonPath, jsonBuffer.str());

  std::cout << "Functional yield(eps): samples within the error budget, per cell ("
            << samples << " samples, approx(fast-ea) mapper)\n\n";
  std::cout << yieldTable << "\n";
  std::cout << "NN layer accuracy vs defect rate (1 - mean realized error)\n\n";
  std::cout << nnTable << "\n";
  std::cout << "json: " << jsonPath << "\n";

  if (yieldZeroMismatches != 0 || monotonicityViolations != 0) {
    std::cout << "FAIL: " << yieldZeroMismatches << " yield(0) mismatch(es), "
              << monotonicityViolations << " monotonicity violation(s)\n";
    return 1;
  }
  // The subsystem must actually rescue dead samples on the committed cells.
  // Tiny smoke runs (ctest -L bench trims --samples) may legitimately see
  // none, so the check applies to full-size runs only.
  if (samples >= 50 && totalRescued == 0) {
    std::cout << "FAIL: no sample was rescued at any epsilon on any cell\n";
    return 1;
  }
  return 0;
}

}  // namespace

MCX_BENCH_SUITE("ablation-approx", "A10: functional yield(eps) + NN accuracy vs defect rate",
                runApprox);
