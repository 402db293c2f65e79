#include "mc/defect_experiment.hpp"

#include <optional>

#include "mc/executor.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/stopwatch.hpp"

namespace mcx {

DefectExperimentResult runDefectExperiment(const FunctionMatrix& fm, const IMapper& mapper,
                                           const DefectExperimentConfig& config) {
  MCX_REQUIRE(config.model != nullptr, "runDefectExperiment: no defect model");
  const DefectModel& model = *config.model;
  DefectExperimentResult result;
  result.samples = config.samples;

  // The RNG pre-split happens up front, unconditionally: an aborted run
  // consumes no stream a rerun would need, so cancel-then-rerun reproduces
  // the full run bit-identically (the regression surface of the committed
  // bench counts).
  const std::vector<Rng> streams = splitSampleStreams(config.seed, config.samples);
  const CrossbarDims dims = redundantDims(fm, config.spares);

  // Run on the caller's persistent pool when provided (the service shares
  // one across requests); otherwise on a transient pool sized by the
  // historical threads knob, capped at one lane per sample.
  std::optional<ExecutorPool> localPool;
  ExecutorPool* pool = config.pool;
  if (pool == nullptr) {
    localPool.emplace(std::min(resolveThreadCount(config.threads),
                               std::max<std::size_t>(config.samples, 1)));
    pool = &*localPool;
  }
  const CancelToken* token = config.cancel.get();

  struct PerSample {
    bool done = false;  ///< sample actually ran (false after an abort)
    bool success = false;
    bool accepted = false;  ///< realized error within config.epsilon
    std::size_t backtracks = 0;
    double millis = 0;
    double error = 0;  ///< realizedErrorOrBinary() of the sample's mapping
  };
  std::vector<PerSample> outcomes(config.samples);
  if (config.keepMappings) result.mappings.resize(config.samples);

  // Per-worker scratch arenas: the DefectMap, crossbar BitMatrix, and
  // mapping-context buffers (the candidate-adjacency kernel's transpose and
  // adjacency) are reused across every sample a worker processes. Buffer
  // reuse changes no bit of any result, so results stay independent of the
  // thread count.
  struct Scratch {
    DefectMap defects;
    BitMatrix cm;
    MappingContext ctx;
  };
  std::vector<Scratch> scratch(pool->slots());
  for (Scratch& sc : scratch) sc.ctx.setSpares(config.spares);

  Stopwatch wall;
  obs::Span mcSpan("mc_experiment");
  pool->run(config.samples, [&](std::size_t worker, std::size_t s) {
    // Cooperative abort: a fired token skips the sample entirely (its
    // outcome stays !done); samples already past this check finish
    // normally, so scratch arenas and results are never left mid-sample.
    if (token != nullptr && token->stopRequested()) return;
    faultinject::onSite("mc.sample");

    Scratch& sc = scratch[worker];
    Rng sampleRng = streams[s];
    model.generate(dims.rows, dims.cols, sampleRng, sc.defects);
    crossbarMatrixInto(sc.defects, sc.cm);

    double sec = 0;
    MappingResult mapping;
    if (config.timePerSample) {
      Stopwatch watch;
      mapping = mapper.map(fm, sc.cm, sc.ctx);
      sec = watch.seconds();
    } else {
      mapping = mapper.map(fm, sc.cm, sc.ctx);
    }

    if (mapping.success)
      MCX_REQUIRE(verifyMapping(fm, sc.cm, mapping, config.spares),
                  "runDefectExperiment: mapper returned an invalid mapping");
    // Graded partial mappings carry a physical claim too (the retained rows
    // really fit their CM rows).
    if (!mapping.success && !mapping.droppedRows.empty())
      MCX_REQUIRE(verifyPartialMapping(fm, sc.cm, mapping, config.spares),
                  "runDefectExperiment: mapper returned an invalid partial mapping");

    PerSample& out = outcomes[s];
    out.done = true;
    out.success = mapping.success;
    out.error = mapping.realizedErrorOrBinary();
    out.accepted = out.error <= config.epsilon;
    out.backtracks = mapping.backtracks;
    out.millis = sec * 1e3;
    if (config.keepMappings) result.mappings[s] = std::move(mapping);
  }, token);
  mcSpan.finish();
  const double wallSeconds = wall.seconds();

  // Merge per-sample outcomes deterministically, in sample order; skipped
  // samples of an aborted run contribute nothing.
  for (std::size_t s = 0; s < config.samples; ++s) {
    const PerSample& out = outcomes[s];
    if (!out.done) continue;
    ++result.completed;
    if (out.success) ++result.successes;
    if (out.accepted) {
      ++result.epsilonAccepted;
      if (!out.success) ++result.rescued;
    }
    result.totalRealizedError += out.error;
    result.totalBacktracks += out.backtracks;
  }

  // Engine throughput telemetry: once per experiment, off the sample path.
  {
    static obs::Counter& experiments = obs::Registry::global().counter("mc.experiments");
    static obs::Counter& samplesRun = obs::Registry::global().counter("mc.samples");
    static obs::Gauge& samplesPerSec =
        obs::Registry::global().gauge("mc.samples_per_sec");
    experiments.add(1);
    samplesRun.add(result.completed);
    if (wallSeconds > 0)
      samplesPerSec.set(
          static_cast<std::int64_t>(static_cast<double>(result.completed) / wallSeconds));
  }

  // Label the abort only when the token actually cut the run short. The
  // completed count is the ground truth: a deadline that expires between
  // the last sample finishing and this check did not abort anything, and
  // the full result must not be reported as an error.
  if (token != nullptr && result.completed < config.samples) {
    const CancelToken::StopReason reason = token->reason();
    if (reason != CancelToken::StopReason::None) {
      result.aborted = true;
      result.abortReason = CancelToken::reasonLabel(reason);
    }
  }
  if (config.timePerSample) {
    // totalSeconds = summed mapper time (the paper's "Time" column).
    std::vector<double> millis;
    millis.reserve(result.completed);
    for (std::size_t s = 0; s < config.samples; ++s) {
      if (!outcomes[s].done) continue;
      millis.push_back(outcomes[s].millis);
      result.totalSeconds += outcomes[s].millis / 1e3;
    }
    result.perSampleMillis = summarize(millis);
  } else {
    result.totalSeconds = wallSeconds;
  }
  return result;
}

}  // namespace mcx
