// Service trace replay: the mcx_serve engine under a mixed request stream.
//
// Drives an in-process ExperimentService with a deterministic trace of
// mixed requests — several circuits and mappers, legacy and scenario
// paths, a sprinkling of tight deadlines and malformed lines, plus one
// deliberate no-backpressure burst — twice: once against a cold circuit
// cache (every distinct circuit synthesizes) and once warm (everything
// coalesces onto cached artifacts). Emits BENCH_serve.json with sustained
// request throughput, p50/p90/p99 response latency (obs::Histogram
// quantiles), per-stage queue-wait and synthesis-time distributions, shed
// and deadline-miss counts for both passes.
//
// Usage:
//   mcx_bench serve-trace [--requests N] [--queue-depth N] [--pool-threads N]
//                         [--seed S] [--json PATH]
#include <algorithm>
#include <chrono>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/driver.hpp"
#include "circuit/cache.hpp"
#include "obs/metrics.hpp"
#include "scenario/spec.hpp"
#include "serve/service.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/text_table.hpp"

namespace {

using namespace mcx;
using serve::ExperimentService;
using serve::ServiceCounters;
using serve::ServiceOptions;

struct TraceConfig {
  std::size_t requests = 1000;
  std::size_t queueDepth = 64;
  std::size_t poolThreads = 1;
  std::uint64_t seed = 0x7ace;
};

/// The deterministic mixed trace: same seed, same requests, same order.
std::vector<std::string> buildTrace(const TraceConfig& config) {
  const char* const circuits[] = {"rd53-min", "sqrt8-min", "majority7-min", "bw", "t481"};
  const char* const mappers[] = {"hba", "hba", "hba", "fast-ea"};  // hba-heavy mix
  const char* const scenarios[] = {"", "", "paper-iid", "clustered"};  // "" = legacy

  Rng rng(config.seed);
  std::vector<std::string> trace;
  trace.reserve(config.requests);
  for (std::size_t i = 0; i < config.requests; ++i) {
    // ~2% malformed lines: the parse path is part of the served mix.
    if (rng.bernoulli(0.02)) {
      // Built via append: GCC 12 -Wrestrict false positive (PR 105329).
      std::string bad = R"({"id": "bad-)";
      bad += std::to_string(i);
      bad += R"(", "circuit": )";
      trace.push_back(std::move(bad));
      continue;
    }
    std::ostringstream req;
    req << "{\"id\": \"r" << i << "\"";
    req << ", \"circuit\": \"" << circuits[rng.uniformInt(0, 4)] << "\"";
    req << ", \"mapper\": \"" << mappers[rng.uniformInt(0, 3)] << "\"";
    const char* scenario = scenarios[rng.uniformInt(0, 3)];
    if (scenario[0] != '\0')
      req << ", \"scenario\": \"" << scenario << "\", \"rate\": 0.08";
    req << ", \"samples\": " << rng.uniformInt(10, 40);
    req << ", \"seed\": " << rng.uniformInt(1, 1u << 20);
    // ~5% carry deadlines tight enough that queue waits push some over.
    if (rng.bernoulli(0.05)) req << ", \"deadline_ms\": " << rng.uniformInt(2, 12);
    req << "}";
    trace.push_back(req.str());
  }
  return trace;
}

struct PassResult {
  double wallSeconds = 0;
  double sustainedRps = 0;
  double p50Millis = 0;
  double p90Millis = 0;
  double p99Millis = 0;
  double queueP50Millis = 0;
  double queueP99Millis = 0;
  double synthP50Millis = 0;
  double synthP99Millis = 0;
  double synthMaxMillis = 0;
  ServiceCounters counters;
  std::uint64_t cacheEvictions = 0;      ///< byte-budget evictions during the pass
  std::uint64_t cacheEvictedBytes = 0;
};

constexpr double kNsPerMs = 1e6;  // obs::Histogram quantiles are nanoseconds

/// Replay the trace through a fresh service. Submission uses backpressure
/// (wait for queue room) so the measured shed/deadline numbers come from
/// the deliberate burst phase and the deadline mix, not from the replay
/// loop outrunning a 1-thread executor by construction.
PassResult runPass(const std::vector<std::string>& trace, const TraceConfig& config) {
  ServiceOptions options;
  options.queueDepth = config.queueDepth;
  options.requestThreads = 1;
  options.poolThreads = config.poolThreads;

  // Per-pass distributions, straight into log-bucketed histograms: no
  // vector growth or post-hoc sort on the response path, and the same
  // quantile math the service's own "serve.*" histograms report.
  const auto latencyHist = std::make_unique<obs::Histogram>();
  const auto queueHist = std::make_unique<obs::Histogram>();
  const auto synthHist = std::make_unique<obs::Histogram>();
  ExperimentService service(options, [&](const std::string& line) {
    const SpecValue doc = parseSpec(line);
    if (doc.find("total_ms") != nullptr)
      latencyHist->recordMillis(doc.numberOr("total_ms", 0));
    if (doc.find("queue_ms") != nullptr)
      queueHist->recordMillis(doc.numberOr("queue_ms", 0));
    if (doc.find("synth_ms") != nullptr)
      synthHist->recordMillis(doc.numberOr("synth_ms", 0));
  });

  const auto inSystem = [&] {
    const ServiceCounters c = service.counters();
    return c.accepted - (c.completedOk + c.deadlineExceeded + c.cancelled + c.internalErrors);
  };

  const CircuitCache::Stats cacheBefore = CircuitCache::global().stats();
  Stopwatch wall;
  for (const std::string& line : trace) {
    // Backpressure: hold submission while the queue is at capacity.
    while (inSystem() >= options.queueDepth)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    service.submit(line);
  }
  // The burst: 2x queue depth fired with no backpressure — the bounded
  // queue must shed the overflow immediately and keep everything else.
  for (std::size_t i = 0; i < 2 * config.queueDepth; ++i) {
    std::string burst = R"({"id": "burst-)";
    burst += std::to_string(i);
    burst += R"(", "circuit": "rd53-min", "samples": 10, "seed": 1})";
    service.submit(burst);
  }
  service.drain();

  PassResult result;
  result.wallSeconds = wall.seconds();
  result.counters = service.counters();
  const CircuitCache::Stats cacheAfter = CircuitCache::global().stats();
  result.cacheEvictions = cacheAfter.evictions - cacheBefore.evictions;
  result.cacheEvictedBytes = cacheAfter.evictedBytes - cacheBefore.evictedBytes;
  result.sustainedRps =
      static_cast<double>(result.counters.completedOk) / result.wallSeconds;
  const obs::Histogram::Snapshot latency = latencyHist->snapshot();
  result.p50Millis = latency.quantile(0.50) / kNsPerMs;
  result.p90Millis = latency.quantile(0.90) / kNsPerMs;
  result.p99Millis = latency.quantile(0.99) / kNsPerMs;
  const obs::Histogram::Snapshot queueWait = queueHist->snapshot();
  result.queueP50Millis = queueWait.quantile(0.50) / kNsPerMs;
  result.queueP99Millis = queueWait.quantile(0.99) / kNsPerMs;
  const obs::Histogram::Snapshot synth = synthHist->snapshot();
  result.synthP50Millis = synth.quantile(0.50) / kNsPerMs;
  result.synthP99Millis = synth.quantile(0.99) / kNsPerMs;
  result.synthMaxMillis = static_cast<double>(synth.max) / kNsPerMs;
  return result;
}

void writePass(JsonWriter& json, const char* label, const PassResult& pass) {
  json.beginObject();
  json.field("pass", label);
  json.field("wall_seconds", pass.wallSeconds);
  json.field("sustained_rps", pass.sustainedRps);
  json.field("p50_latency_ms", pass.p50Millis);
  json.field("p90_latency_ms", pass.p90Millis);
  json.field("p99_latency_ms", pass.p99Millis);
  json.field("queue_wait_p50_ms", pass.queueP50Millis);
  json.field("queue_wait_p99_ms", pass.queueP99Millis);
  json.field("synth_p50_ms", pass.synthP50Millis);
  json.field("synth_p99_ms", pass.synthP99Millis);
  json.field("synth_max_ms", pass.synthMaxMillis);
  json.field("received", pass.counters.received);
  json.field("completed_ok", pass.counters.completedOk);
  json.field("parse_errors", pass.counters.parseErrors);
  json.field("shed_overloaded", pass.counters.shedOverloaded);
  // Governance breakdown: which shedder did the work (all zero at the
  // default knobs — the committed invariants ok+ddl/parse/shed are measured
  // with governance off, and MUST stay identical when it merely exists).
  json.field("client_shed", pass.counters.clientShed);
  json.field("cost_shed", pass.counters.costShed);
  json.field("batch_shed", pass.counters.batchShed);
  json.field("aged_out", pass.counters.agedOut);
  json.field("degraded_responses", pass.counters.degradedResponses);
  json.field("deadline_exceeded", pass.counters.deadlineExceeded);
  json.field("internal_errors", pass.counters.internalErrors);
  json.field("queue_high_water", pass.counters.queueHighWater);
  json.field("samples_completed", pass.counters.samplesCompleted);
  json.field("circuit_cache_hits", pass.counters.circuitCacheHits);
  json.field("circuit_cache_misses", pass.counters.circuitCacheMisses);
  json.field("cache_evictions", pass.cacheEvictions);
  json.field("cache_evicted_bytes", pass.cacheEvictedBytes);
  json.field("synthesis_runs", pass.counters.synthesisRuns);
  json.endObject();
}

int runServeTrace(const std::vector<std::string>& args) {
  TraceConfig config;
  bench::CommonOptions common;

  cli::ArgParser parser("mcx_bench serve-trace",
                        "mixed-request trace replay through the experiment service "
                        "(cold vs warm circuit cache)");
  common.addSeedTo(parser);
  common.addJsonTo(parser);
  parser.add("--requests", &config.requests, "N", "trace length (default 1000)");
  parser.add("--queue-depth", &config.queueDepth, "N", "admission queue depth (default 64)");
  parser.add("--pool-threads", &config.poolThreads, "N",
             "sample-pool parallelism (default 1)");
  if (const auto code = bench::parseSuiteArgs(parser, args)) return *code;
  config.seed = common.seedOr(config.seed);
  const std::string jsonPath = common.jsonOr("BENCH_serve.json");
  MCX_REQUIRE(config.requests > 0, "--requests must be positive");
  MCX_REQUIRE(config.queueDepth > 0, "--queue-depth must be positive");

  const std::vector<std::string> trace = buildTrace(config);
  std::cout << "serve-trace: " << trace.size() << " requests, queue depth "
            << config.queueDepth << ", pool threads " << config.poolThreads << " (seed "
            << config.seed << ")\n\n";

  // Cold pass: every distinct circuit declaration synthesizes from scratch.
  CircuitCache::global().clear();
  const PassResult cold = runPass(trace, config);
  // Warm pass: the same trace again, everything already compiled.
  const PassResult warm = runPass(trace, config);

  std::ostringstream jsonBuffer;
  JsonWriter json(jsonBuffer);
  json.beginObject();
  json.field("bench", "serve_trace");
  json.field("requests", trace.size());
  json.field("queue_depth", config.queueDepth);
  json.field("pool_threads", config.poolThreads);
  json.field("seed", config.seed);
  json.key("passes").beginArray();
  writePass(json, "cold", cold);
  writePass(json, "warm", warm);
  json.endArray();
  json.endObject();
  bench::writeJsonFile(jsonPath, jsonBuffer.str());

  TextTable table({"pass", "req/s", "p50 ms", "p90 ms", "p99 ms", "q p99", "syn p99", "ok",
                   "shed", "ddl miss", "synth"});
  const auto addRow = [&table](const char* label, const PassResult& pass) {
    table.addRow({label, TextTable::num(pass.sustainedRps, 1),
                  TextTable::num(pass.p50Millis, 3), TextTable::num(pass.p90Millis, 3),
                  TextTable::num(pass.p99Millis, 3),
                  TextTable::num(pass.queueP99Millis, 3),
                  TextTable::num(pass.synthP99Millis, 3),
                  std::to_string(pass.counters.completedOk),
                  std::to_string(pass.counters.shedOverloaded),
                  std::to_string(pass.counters.deadlineExceeded),
                  std::to_string(pass.counters.synthesisRuns)});
  };
  addRow("cold", cold);
  addRow("warm", warm);
  std::cout << table << "\nJSON written to " << jsonPath << "\n";

  // Self-checks: the burst must shed, the warm pass must not re-synthesize.
  int failures = 0;
  if (cold.counters.shedOverloaded == 0 || warm.counters.shedOverloaded == 0) {
    std::cerr << "serve_trace: the no-backpressure burst was not shed\n";
    ++failures;
  }
  if (warm.counters.synthesisRuns != 0) {
    std::cerr << "serve_trace: warm pass re-synthesized " << warm.counters.synthesisRuns
              << " circuits (cache coalescing broken)\n";
    ++failures;
  }
  // The workload must leave the service's per-stage registry histograms
  // populated — the contract behind the {"type":"stats"} snapshot.
  for (const char* stage : {"serve.queue_wait", "serve.synthesis", "serve.mc_run",
                            "serve.emit"}) {
    if (obs::Registry::global().histogram(stage).count() == 0) {
      std::cerr << "serve_trace: registry histogram " << stage << " stayed empty\n";
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

MCX_BENCH_SUITE("serve-trace",
                "mixed-request trace through the experiment service, cold vs warm cache "
                "(BENCH_serve)",
                runServeTrace);
