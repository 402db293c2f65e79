// The mcx:: facade: one builder-style entry point for defect-mapping
// experiments.
//
// Call sites used to assemble a DefectExperimentConfig field by field, load
// circuits by hand and hard-wire mapper objects; the builder chains the
// whole declaration — circuit, mapper, scenario, knobs — resolves names
// through the circuit, mapper and scenario registries, and returns a typed
// ExperimentResult with uniform JSON serialization:
//
//   const ExperimentResult r = ExperimentBuilder()
//                                  .circuit("rd53")
//                                  .mapper("hba")
//                                  .scenario("clustered", 0.08)
//                                  .samples(200)
//                                  .seed(42)
//                                  .run();
//
// Circuits are full pipeline declarations (circuit/spec.hpp): registry
// names, .pla files, inline PLA/SOP text, generators — with synthesis and
// realization knobs — compiled through the memoized synthesis front-end
// (circuit/cache.hpp), so re-running a declaration skips re-synthesis:
//
//   ExperimentBuilder().circuit("file:examples/data/adder.pla").mapper("hba")...
//
// The builder is a declaration, not an engine: run() delegates to
// runDefectExperiment, so results are bit-identical to hand-built configs.
// legacyRates() declares the paper's IidBernoulli draw under the label
// "iid (legacy rates)" — the regression anchor of the committed
// BENCH_defect_mc.json success counts — and a builder with no scenario
// declared runs legacyRates(0.10), the paper's Table II setting.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "circuit/spec.hpp"
#include "logic/cover.hpp"
#include "map/matching.hpp"
#include "mc/defect_experiment.hpp"
#include "scenario/defect_model.hpp"
#include "util/json_writer.hpp"

namespace mcx {

/// Typed outcome of an ExperimentBuilder run: the declaration that produced
/// it (labels, dimensions, resolved config) plus the Monte Carlo outcome.
struct ExperimentResult {
  std::string circuit;
  std::string circuitSpec;    ///< canonical pipeline declaration
  std::string mapper;
  std::string scenario;       ///< model description, or "iid (legacy rates)"
  std::size_t rows = 0;
  std::size_t cols = 0;
  DefectExperimentConfig config;    ///< the resolved engine configuration
  DefectExperimentResult outcome;
  /// An error budget was declared (errorBudget()): the graded counts
  /// (epsilon, epsilon_accepted, functional_yield, rescued,
  /// mean_realized_error) join the JSON. Off for legacy declarations so
  /// their serialization stays byte-identical.
  bool graded = false;
  /// Stage split of run(): circuit compile/cache time vs Monte Carlo time.
  /// A cache hit shows up as synthesisMillis ≈ 0.
  double synthesisMillis = 0;
  double mcRunMillis = 0;

  std::size_t area() const { return rows * cols; }
  double successRate() const { return outcome.successRate(); }
  double meanSeconds() const { return outcome.meanSeconds(); }
  double functionalYield() const { return outcome.functionalYield(); }
  double meanRealizedError() const { return outcome.meanRealizedError(); }

  /// Uniform serialization: one object with the declaration and the
  /// outcome, identical keys for every mapper/scenario/circuit combination.
  void writeJson(JsonWriter& json) const;
  std::string toJson() const;
};

class ExperimentBuilder {
public:
  /// Starts from legacyRates(0.10): every declaration names its defects.
  ExperimentBuilder();

  // --- circuit ------------------------------------------------------------
  /// Circuit registry preset ("rd53"), prefixed source ("file:adder.pla",
  /// "gen:weight5", ...) or JSON pipeline spec — see circuit/registry.hpp.
  /// A bare paper-circuit name compiles its source cover with synth=none.
  ExperimentBuilder& circuit(const std::string& nameOrSpec);
  /// Explicit pipeline declaration.
  ExperimentBuilder& circuit(const CircuitSpec& spec);
  /// Explicit cover under a custom label (compiled as a Cover-source spec:
  /// two-level, or multi-level when multiLevel() is set).
  ExperimentBuilder& circuit(const std::string& label, const Cover& cover);
  /// Realize the declared circuit as a multi-level (factored NAND) crossbar
  /// instead of the two-level one; overrides the spec's realize knob.
  ExperimentBuilder& multiLevel(bool on = true);
  /// Compile through the memoized synthesis front-end (default) or run the
  /// raw pipeline every time (benchmarking bypass). Inline covers
  /// (circuit(label, cover)) are never memoized — the global cache has no
  /// eviction, and an open-ended stream of distinct covers must not
  /// accumulate immortal entries.
  ExperimentBuilder& cache(bool on);

  // --- mapper -------------------------------------------------------------
  /// Registry name ("hba", "ea", "fast-ea", ...) or JSON option spec.
  ExperimentBuilder& mapper(const std::string& nameOrSpec);
  ExperimentBuilder& mapper(std::shared_ptr<const IMapper> mapper);

  // --- defect scenario ----------------------------------------------------
  /// Registry preset (built at @p rate) or JSON model spec.
  ExperimentBuilder& scenario(const std::string& nameOrSpec, double rate = 0.10);
  ExperimentBuilder& scenario(std::shared_ptr<const DefectModel> model);
  /// The paper's i.i.d. draw, IidBernoulli(stuckOpen, stuckClosed),
  /// labeled "iid (legacy rates)": the bit-identity regression surface.
  /// Bad rates throw mcx::InvalidArgument here, at declaration.
  ExperimentBuilder& legacyRates(double stuckOpen, double stuckClosed = 0.0);

  // --- knobs --------------------------------------------------------------
  ExperimentBuilder& samples(std::size_t n);
  ExperimentBuilder& seed(std::uint64_t seed);
  ExperimentBuilder& threads(std::size_t threads);
  /// Spare lines (engine geometry, DefectExperimentConfig::spares); spare
  /// pairs need the colperm mapper.
  ExperimentBuilder& spares(const RedundantCrossbarSpec& spares);
  /// spares({n, 0, 0}), kept for existing callers.
  ExperimentBuilder& spareRows(std::size_t n) { return spares({n, 0, 0}); }
  ExperimentBuilder& timePerSample(bool on);
  ExperimentBuilder& keepMappings(bool on);
  /// Graded acceptance budget (functional yield(ε)) in [0, 1]: a sample
  /// counts as epsilon-accepted iff its realized error is within the
  /// budget. 0 (the default) is the classical pass/fail criterion; the
  /// graded counts then appear in the JSON only when the budget was
  /// declared, keeping legacy output byte-identical.
  ExperimentBuilder& errorBudget(double epsilon);

  // --- robustness ---------------------------------------------------------
  /// Abort the run (with partial, well-labeled results) once this budget is
  /// spent — the deadline clock starts when run() is called. Arms the
  /// declared cancelToken, or a private one when none was declared.
  ExperimentBuilder& deadline(double millis);
  /// Cooperative cancellation: workers poll @p token between samples, so an
  /// external cancel() aborts the experiment with partial results.
  ExperimentBuilder& cancelToken(std::shared_ptr<CancelToken> token);
  /// Run on a caller-owned persistent ExecutorPool (the experiment service
  /// shares one across requests) instead of a transient per-run pool.
  ExperimentBuilder& pool(ExecutorPool* pool);

  /// Run the declared experiment through the parallel Monte Carlo engine.
  /// Throws mcx::InvalidArgument when no circuit or no mapper was declared,
  /// mcx::ParseError for unresolvable names/specs (thrown eagerly by the
  /// declaration calls above).
  ExperimentResult run() const;

private:
  std::optional<CircuitSpec> spec_;
  std::optional<bool> multiLevel_;
  bool cache_ = true;
  std::shared_ptr<const IMapper> mapper_;
  std::string scenarioLabel_;
  std::optional<double> deadlineMillis_;
  bool errorBudgetDeclared_ = false;
  DefectExperimentConfig config_;
};

}  // namespace mcx
