#include "api/experiment.hpp"

#include <sstream>
#include <utility>

#include "circuit/cache.hpp"
#include "circuit/registry.hpp"
#include "map/registry.hpp"
#include "obs/trace.hpp"
#include "scenario/registry.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace mcx {

void ExperimentResult::writeJson(JsonWriter& json) const {
  json.beginObject();
  json.field("circuit", circuit);
  json.field("circuit_spec", circuitSpec);
  json.field("mapper", mapper);
  json.field("scenario", scenario);
  json.field("rows", rows);
  json.field("cols", cols);
  json.field("area", area());
  json.field("samples", outcome.samples);
  json.field("completed", outcome.completed);
  json.field("successes", outcome.successes);
  json.field("success_rate", successRate());
  if (graded) {
    json.field("epsilon", config.epsilon);
    json.field("epsilon_accepted", outcome.epsilonAccepted);
    json.field("functional_yield", functionalYield());
    json.field("rescued", outcome.rescued);
    json.field("mean_realized_error", meanRealizedError());
  }
  json.field("aborted", outcome.aborted);
  json.field("abort_reason", outcome.abortReason);
  json.field("seed", config.seed);
  json.field("threads", config.threads);
  json.field("total_seconds", outcome.totalSeconds);
  json.field("mean_seconds", meanSeconds());
  json.field("synth_millis", synthesisMillis);
  json.field("mc_run_millis", mcRunMillis);
  json.field("total_backtracks", outcome.totalBacktracks);
  if (config.timePerSample) json.field("mean_map_millis", outcome.perSampleMillis.mean);
  json.endObject();
}

std::string ExperimentResult::toJson() const {
  std::ostringstream out;
  JsonWriter json(out);
  writeJson(json);
  return out.str();
}

ExperimentBuilder::ExperimentBuilder() { legacyRates(0.10); }

ExperimentBuilder& ExperimentBuilder::circuit(const std::string& nameOrSpec) {
  return circuit(makeCircuitSpec(nameOrSpec));
}

ExperimentBuilder& ExperimentBuilder::circuit(const CircuitSpec& spec) {
  spec_ = spec;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::circuit(const std::string& label, const Cover& cover) {
  CircuitSpec spec;
  spec.source = CircuitSpec::Source::Cover;
  spec.cover = cover;
  spec.label = label;
  return circuit(spec);
}

ExperimentBuilder& ExperimentBuilder::multiLevel(bool on) {
  multiLevel_ = on;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::cache(bool on) {
  cache_ = on;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::mapper(const std::string& nameOrSpec) {
  mapper_ = makeMapper(nameOrSpec);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::mapper(std::shared_ptr<const IMapper> mapper) {
  MCX_REQUIRE(mapper != nullptr, "ExperimentBuilder: null mapper");
  mapper_ = std::move(mapper);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::scenario(const std::string& nameOrSpec, double rate) {
  return scenario(makeScenario(nameOrSpec, rate));
}

ExperimentBuilder& ExperimentBuilder::scenario(std::shared_ptr<const DefectModel> model) {
  MCX_REQUIRE(model != nullptr, "ExperimentBuilder: null scenario model");
  scenarioLabel_ = model->describe();
  config_.model = std::move(model);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::legacyRates(double stuckOpen, double stuckClosed) {
  config_.model = std::make_shared<IidBernoulli>(stuckOpen, stuckClosed);
  scenarioLabel_ = kLegacyScenario;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::samples(std::size_t n) {
  config_.samples = n;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::seed(std::uint64_t seed) {
  config_.seed = seed;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::threads(std::size_t threads) {
  config_.threads = threads;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::spares(const RedundantCrossbarSpec& spares) {
  config_.spares = spares;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::verifyMappings(bool on) {
  config_.verify = on;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::timePerSample(bool on) {
  config_.timePerSample = on;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::keepMappings(bool on) {
  config_.keepMappings = on;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::errorBudget(double epsilon) {
  MCX_REQUIRE(epsilon >= 0.0 && epsilon <= 1.0,
              "ExperimentBuilder: error budget must be in [0, 1]");
  config_.epsilon = epsilon;
  errorBudgetDeclared_ = true;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::deadline(double millis) {
  MCX_REQUIRE(millis > 0, "ExperimentBuilder: deadline must be positive");
  deadlineMillis_ = millis;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::cancelToken(std::shared_ptr<CancelToken> token) {
  MCX_REQUIRE(token != nullptr, "ExperimentBuilder: null cancel token");
  config_.cancel = std::move(token);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::pool(ExecutorPool* pool) {
  config_.pool = pool;
  return *this;
}

ExperimentResult ExperimentBuilder::run() const {
  MCX_REQUIRE(spec_.has_value(), "ExperimentBuilder: no circuit declared");
  MCX_REQUIRE(mapper_ != nullptr, "ExperimentBuilder: no mapper declared");

  ExperimentResult result;
  result.circuit = spec_->displayLabel();

  Stopwatch synthWatch;
  obs::Span synthSpan("synthesis");
  CircuitSpec spec = *spec_;
  if (multiLevel_.has_value())
    spec.realize = *multiLevel_ ? CircuitSpec::Realize::MultiLevel
                                : CircuitSpec::Realize::TwoLevel;
  // Inline covers bypass the process-global cache: a long-running sweep
  // over distinct covers would otherwise accumulate one immortal entry
  // (cover + FM + layout) per cover, and pay a serialization per run()
  // just to key it. Named declarations (registry/file/gen/...) are a
  // bounded set and stay memoized.
  const bool memoize = cache_ && spec.source != CircuitSpec::Source::Cover;
  const std::shared_ptr<const Circuit> compiled = compileCircuit(spec, memoize);
  const FunctionMatrix& fm = compiled->fm;
  result.circuitSpec = spec.canonical();
  synthSpan.finish();
  result.synthesisMillis = synthWatch.millis();

  result.mapper = mapper_->name();
  result.scenario = scenarioLabel_;
  result.rows = fm.rows();
  result.cols = fm.cols();

  // The deadline clock starts here, after synthesis: the budget covers the
  // Monte Carlo run the caller declared. (The service arms its own token at
  // admission instead, so queueing and synthesis count against service-level
  // deadlines.)
  DefectExperimentConfig config = config_;
  if (deadlineMillis_.has_value()) {
    if (config.cancel == nullptr) config.cancel = std::make_shared<CancelToken>();
    config.cancel->setDeadlineAfterMillis(*deadlineMillis_);
  }
  result.config = config;
  result.graded = errorBudgetDeclared_;
  Stopwatch mcWatch;
  result.outcome = runDefectExperiment(fm, *mapper_, config);
  result.mcRunMillis = mcWatch.millis();
  return result;
}

}  // namespace mcx
