// Monte Carlo defect-tolerant mapping experiments (Section V of the paper).
//
// For each sample a fresh defect map is drawn from the configured
// DefectModel (required; IidBernoulli is the paper's independent uniform
// per-crosspoint draw), the crossbar matrix is derived, and the mapper under
// test runs on an optimum-size crossbar, or on one with spare lines
// (DefectExperimentConfig::spares). Success rate and runtime are
// accumulated — the quantities of Table II.
//
// This is the one sampling loop: callers that need a sample's defect map
// again re-derive it from splitSampleStreams(seed, samples)[s] and
// DefectModel::sample, the stream the engine used for sample s.
//
// The engine is parallel and deterministic: the root RNG is pre-split into
// one stream per sample (in sample order), samples are distributed over a
// worker pool with per-worker scratch arenas, and the per-sample outcomes
// are merged back in sample order. Defect maps, success counts, and row
// assignments are therefore bit-identical at any thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "map/matching.hpp"
#include "mc/cancel.hpp"
#include "mc/stats.hpp"
#include "scenario/defect_model.hpp"
#include "xbar/function_matrix.hpp"

namespace mcx {

class ExecutorPool;

struct DefectExperimentConfig {
  std::size_t samples = 200;       ///< the paper's sample size
  /// Crossbar geometry: samples are redundantDims(fm, spares) defect maps.
  /// Spare pairs need colperm; a row-only mapper throws InvalidArgument.
  RedundantCrossbarSpec spares;
  /// Defect-pattern generator (the scenario subsystem). Required:
  /// runDefectExperiment throws InvalidArgument on null. The paper's Table
  /// II setting is IidBernoulli(0.10), stuck-open only.
  std::shared_ptr<const DefectModel> model;
  std::uint64_t seed = 1;
  /// Worker threads; 0 = hardware concurrency. Results do not depend on
  /// this knob (per-sample RNG streams are pre-split in sample order).
  std::size_t threads = 0;
  /// Graded acceptance budget (functional yield(ε)): a sample counts as
  /// epsilon-accepted iff its realized error — the mapper's explicit
  /// realizedError when measured, else the binary verdict — is <= epsilon.
  /// 0 (the default) is the classical pass/fail criterion: with exact
  /// mappers epsilonAccepted is then structurally identical to successes.
  double epsilon = 0.0;
  /// Time every individual mapper call: fills perSampleMillis and makes
  /// totalSeconds the sum of mapping times (the paper's "Time" column)
  /// instead of the run's wall clock. Off by default so sweep-style callers
  /// don't pay two clock reads per sample; totalSeconds then holds the
  /// whole run's wall clock (sampling + mapping + verification).
  bool timePerSample = false;
  /// Keep each sample's MappingResult in DefectExperimentResult::mappings
  /// (sample order). Off by default to keep large sweeps lean.
  bool keepMappings = false;
  /// Cooperative cancellation: checked between samples. When the token
  /// fires (explicit cancel() or deadline), remaining samples are skipped
  /// and the result is labeled aborted with the partial counts — shared
  /// state is never left mid-sample. Null = run to completion.
  std::shared_ptr<CancelToken> cancel;
  /// Caller-owned persistent worker pool (the experiment service shares one
  /// across requests). Null = a transient pool of `threads` workers, the
  /// historical per-call behaviour. The pool's parallelism overrides the
  /// `threads` knob; results depend on neither (pre-split RNG streams).
  ExecutorPool* pool = nullptr;
};

struct DefectExperimentResult {
  std::size_t samples = 0;    ///< requested sample count
  /// Samples actually mapped: == samples unless the run was aborted by a
  /// CancelToken, in which case the statistics below cover exactly these.
  std::size_t completed = 0;
  std::size_t successes = 0;
  /// Samples whose realized error is within config.epsilon — the graded
  /// success count behind functional yield(ε). Always >= successes (an
  /// exact success has realized error 0).
  std::size_t epsilonAccepted = 0;
  /// Epsilon-accepted samples that were NOT exact successes: dead samples
  /// rescued by an approximate mapper's partial realization.
  std::size_t rescued = 0;
  /// Sum of realized error over completed samples (exact fractions for
  /// error-aware mappers, 0/1 binary verdicts otherwise).
  double totalRealizedError = 0;
  /// With config.timePerSample: summed mapper time over all samples.
  /// Without: wall-clock of the whole run (sampling + mapping + verify).
  double totalSeconds = 0;
  std::size_t totalBacktracks = 0;
  /// Populated only with config.timePerSample.
  SummaryStats perSampleMillis;
  /// Per-sample mapper outputs, in sample order (only when keepMappings).
  /// In an aborted run, skipped samples hold default (failed) entries.
  std::vector<MappingResult> mappings;
  /// The run stopped early via config.cancel; the partial statistics are
  /// well-labeled ("cancelled" or "deadline_exceeded" in abortReason).
  bool aborted = false;
  std::string abortReason;

  /// Success rate over the samples that actually ran (identical to the
  /// historical samples-denominator for completed runs).
  double successRate() const {
    const std::size_t denom = completed != 0 ? completed : samples;
    return denom == 0 ? 0.0 : static_cast<double>(successes) / static_cast<double>(denom);
  }
  /// Mean per-sample time in seconds: the paper's "Time" column when
  /// config.timePerSample is set, mean wall time per sample otherwise.
  double meanSeconds() const {
    const std::size_t denom = completed != 0 ? completed : samples;
    return denom == 0 ? 0.0 : totalSeconds / static_cast<double>(denom);
  }
  /// Graded success rate: fraction of ran samples within the error budget.
  /// Equals successRate() at epsilon = 0 with exact mappers.
  double functionalYield() const {
    const std::size_t denom = completed != 0 ? completed : samples;
    return denom == 0 ? 0.0
                      : static_cast<double>(epsilonAccepted) / static_cast<double>(denom);
  }
  /// Mean realized error over the samples that ran.
  double meanRealizedError() const {
    const std::size_t denom = completed != 0 ? completed : samples;
    return denom == 0 ? 0.0 : totalRealizedError / static_cast<double>(denom);
  }
};

/// Run the Monte Carlo sweep. The mapper's map() must be safe to call
/// concurrently from several threads (all library mappers are stateless).
/// Every claimed success is checked with verifyMapping and every graded
/// partial mapping with verifyPartialMapping; an invalid claim throws, so
/// an experiment cannot silently report one. Throws InvalidArgument when
/// config.model is null.
DefectExperimentResult runDefectExperiment(const FunctionMatrix& fm,
                                           const IMapper& mapper,
                                           const DefectExperimentConfig& config);

}  // namespace mcx
