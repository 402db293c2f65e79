#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "api/experiment.hpp"
#include "assign/hopcroft_karp.hpp"
#include "circuit/cache.hpp"
#include "ledger.hpp"
#include "loadgen.hpp"
#include "mc/executor.hpp"
#include "mc/stats.hpp"
#include "scenario/spec.hpp"
#include "serve/request.hpp"
#include "util/process.hpp"

namespace perfbench {

namespace {

using mcx::serve::Request;

// ------------------------------------------------------------ definitions

/// One experiment declaration: the JSON members of a request line other
/// than id, seed and samples. Cells of one group run on identical defect
/// draws (same seed), so their mappers can be compared sample for sample.
struct Cell {
  std::string label;
  std::string fields;
  std::size_t samples;
  int group;
};

struct McWorkload {
  std::string name;
  std::size_t lanes;
  std::vector<Cell> cells;
};

std::size_t hostLanes() {
  return std::min<std::size_t>(4, std::max(1u, std::thread::hardware_concurrency()));
}

std::string iid(double rate) {
  std::ostringstream out;
  out << "\"scenario\":\"paper-iid\",\"rate\":" << rate;
  return out.str();
}

/// bw dominates the wall; rd53 and sqrt8 keep three circuit shapes in play.
McWorkload mcMultilevel() {
  const std::string ml = "\"multilevel\":true,";
  return {"mc-multilevel", hostLanes(),
          {
              {"bw/ml/hba", "\"circuit\":\"bw\"," + ml + "\"mapper\":\"hba\"," + iid(0.10), 400, 0},
              {"bw/ml/fast-ea", "\"circuit\":\"bw\"," + ml + "\"mapper\":\"fast-ea\"," + iid(0.10), 400, 0},
              {"rd53/ml/hba", "\"circuit\":\"rd53\"," + ml + "\"mapper\":\"hba\"," + iid(0.10), 100, 1},
              {"rd53/ml/fast-ea", "\"circuit\":\"rd53\"," + ml + "\"mapper\":\"fast-ea\"," + iid(0.10), 100, 1},
              {"sqrt8/ml/hba", "\"circuit\":\"sqrt8\"," + ml + "\"mapper\":\"hba\"," + iid(0.10), 100, 2},
              {"sqrt8/ml/fast-ea", "\"circuit\":\"sqrt8\"," + ml + "\"mapper\":\"fast-ea\"," + iid(0.10), 100, 2},
          }};
}

/// Sample counts give the matching-bound alu4 cells, the dense-sampler sao2
/// cells and the approx cells comparable shares of the wall. Calls are kept
/// short (about 1 ms) so a run has about a thousand of them per second: the
/// 1000-call windows of serve_p99_ms then last about a second, and a slow
/// host episode moves only the windows it covers.
McWorkload mcTwolevelMixed() {
  const std::string approx = "\"mapper\":\"approx\",\"epsilon\":0.05,";
  return {"mc-twolevel-mixed", 1,
          {
              {"alu4/hba/iid15", "\"circuit\":\"alu4\",\"mapper\":\"hba\"," + iid(0.15), 6, 0},
              {"alu4/fast-ea/iid15", "\"circuit\":\"alu4\",\"mapper\":\"fast-ea\"," + iid(0.15), 6, 0},
              {"sao2/hba/legacy15", "\"circuit\":\"sao2\",\"mapper\":\"hba\",\"open\":0.15", 50, 1},
              {"sao2/fast-ea/legacy15", "\"circuit\":\"sao2\",\"mapper\":\"fast-ea\",\"open\":0.15", 50, 1},
              {"sao2/hba/clustered1", "\"circuit\":\"sao2\",\"mapper\":\"hba\",\"scenario\":\"clustered\",\"rate\":0.01", 80, 2},
              {"sao2/fast-ea/clustered1", "\"circuit\":\"sao2\",\"mapper\":\"fast-ea\",\"scenario\":\"clustered\",\"rate\":0.01", 80, 2},
              {"rd53-min/approx/iid25", "\"circuit\":\"rd53-min\"," + approx + iid(0.25), 18, 3},
              {"nn-small/approx/iid20", "\"circuit\":\"nn-small\"," + approx + iid(0.20), 18, 4},
          }};
}

/// Fixed open-loop arrival rate of serve-open-loop, in requests per second:
/// about 0.3x the closed-loop capacity (800-950 requests/s) measured when
/// the benchmark was defined (4-core Xeon, Release, --pool-threads 4).
/// Frozen so the latency it reports is queueing at a known absolute load. At
/// 0.7x the queue amplified the host's run-to-run speed noise into a p50
/// that moved by +-40% between runs.
constexpr double kServeOpenLoopRate = 250.0;
/// Open-loop requests per run: at least this many, so p99 has >= 10 beyond.
constexpr std::size_t kMinOpenLoopRequests = 1100;
/// Latency percentiles are taken per window of consecutive operations (1000
/// for p99, so it has 10 beyond it) and reported as the median over the
/// windows; rates are the median over 1 s slices. Both keep a slow host
/// episode that covers a minority of the run from moving the result.
constexpr std::size_t kP50Window = 250;
constexpr std::size_t kP99Window = 1000;
/// Samples replayed stage by stage in a traced mc run (about 8 spans each).
constexpr std::size_t kReplaySamples = 20000;

/// Layer probes: small cells replayed in a traced run when the workload's
/// own experiments never reach a mapper family, so every per-layer metric
/// is measured on every workload. Their spans are kept out of the other
/// layers' figures.
const std::vector<Cell>& probeCells() {
  static const std::vector<Cell> cells = {
      {"probe/hba", "\"circuit\":\"rd53-min\",\"mapper\":\"hba\"," + iid(0.10), 200, 0},
      {"probe/fast-ea", "\"circuit\":\"rd53-min\",\"mapper\":\"fast-ea\"," + iid(0.10), 200, 0},
      {"probe/approx",
       "\"circuit\":\"rd53-min\",\"mapper\":\"approx\",\"epsilon\":0.05," + iid(0.25), 200, 1},
  };
  return cells;
}

// ---------------------------------------------------------------- helpers

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Experiment seed of one group in one round (< 2^31: JSON-exact).
std::uint64_t opSeed(std::uint64_t workloadSeed, std::size_t round, int group) {
  return mix64(mix64(workloadSeed) + round * 1024 + static_cast<std::uint64_t>(group)) >> 33;
}

/// Request id "<prefix><i>" (built by streaming: GCC 12 warns falsely on
/// literal + std::to_string temporaries).
std::string idOf(const char* prefix, std::size_t i) {
  std::ostringstream out;
  out << prefix << i;
  return out.str();
}

std::string requestLine(const std::string& id, std::uint64_t seed, std::size_t samples,
                        const std::string& fields) {
  return "{\"id\":\"" + id + "\",\"seed\":" + std::to_string(seed) +
         ",\"samples\":" + std::to_string(samples) + "," + fields + "}";
}

Request parseLine(const std::string& line) {
  return mcx::serve::parseRequest(line, mcx::serve::RequestLimits{});
}

mcx::CircuitSpec effectiveSpec(const Request& req) {
  mcx::CircuitSpec spec = req.circuit;
  if (req.multiLevel.has_value())
    spec.realize = *req.multiLevel ? mcx::CircuitSpec::Realize::MultiLevel
                                   : mcx::CircuitSpec::Realize::TwoLevel;
  return spec;
}

/// The builder declaration the service would run for @p req, at @p seed.
mcx::ExperimentResult runRequest(const Request& req, std::uint64_t seed,
                                 mcx::ExecutorPool* pool) {
  mcx::ExperimentBuilder builder;
  builder.circuit(req.circuit)
      .mapper(req.mapper)
      .samples(req.samples)
      .seed(seed)
      .spareRows(req.spareRows)
      .cache(req.useCache);
  if (pool != nullptr)
    builder.pool(pool);
  else
    builder.threads(1);
  if (req.scenario != nullptr)
    builder.scenario(req.scenario);
  else
    builder.legacyRates(req.legacyOpen, req.legacyClosed);
  if (req.multiLevel.has_value()) builder.multiLevel(*req.multiLevel);
  if (req.epsilon.has_value()) builder.errorBudget(*req.epsilon);
  return builder.run();
}

double secondsSince(Nanos start) { return static_cast<double>(nowNanos() - start) / 1e9; }

double ownPeakRssMb() {
  return static_cast<double>(mcx::proc::memoryUsage().peakRssBytes) / (1 << 20);
}

std::string fmt(double v, int precision = 4) {
  std::ostringstream out;
  out.precision(precision);
  out << v;
  return out.str();
}

// ----------------------------------------------------------------- oracle

/// Word-level row fit: every required switch of FM row i is functional in
/// CM row j (FM padding bits are zero, so whole words can be compared).
bool rowFits(const mcx::BitMatrix& fm, std::size_t i, const mcx::BitMatrix& cm, std::size_t j) {
  const auto need = fm.rowWords(i);
  const auto have = cm.rowWords(j);
  if (need.size() != have.size()) return false;
  for (std::size_t k = 0; k < need.size(); ++k)
    if ((need[k] & ~have[k]) != 0) return false;
  return true;
}

/// The benchmark's own check of a claimed mapping, independent of
/// verifyMapping: each placed FM row fits its CM row, CM rows are distinct,
/// and exactly the declared rows of a graded partial mapping are unplaced.
bool oracleAccepts(const mcx::FunctionMatrix& fm, const mcx::BitMatrix& cm,
                   const mcx::MappingResult& m) {
  const mcx::FunctionMatrix* target = &fm;
  mcx::FunctionMatrix permuted;
  bool identity = true;
  for (std::size_t v = 0; v < m.inputPermutation.size(); ++v)
    identity = identity && m.inputPermutation[v] == v;
  if (!identity) {
    permuted = fm.withInputPermutation(m.inputPermutation);
    target = &permuted;
  }
  const mcx::BitMatrix& bits = target->bits();
  if (m.rowAssignment.size() != bits.rows()) return false;
  std::vector<char> used(cm.rows(), 0);
  std::size_t unplaced = 0;
  for (std::size_t i = 0; i < bits.rows(); ++i) {
    const std::size_t j = m.rowAssignment[i];
    if (j == mcx::MappingResult::kUnassigned) {
      ++unplaced;
      if (!std::binary_search(m.droppedRows.begin(), m.droppedRows.end(), i)) return false;
      continue;
    }
    if (j >= cm.rows() || used[j] != 0 || !rowFits(bits, i, cm, j)) return false;
    used[j] = 1;
  }
  if (m.success) return unplaced == 0 && m.droppedRows.empty();
  return !m.droppedRows.empty() && unplaced == m.droppedRows.size();
}

// ----------------------------------------------------------------- replay

struct ReplayCounts {
  std::size_t samples = 0;
  std::size_t successes = 0;
  std::size_t accepted = 0;
  std::size_t backtracks = 0;
  std::size_t defects = 0;
  std::size_t innerFailures = 0;  ///< approx mapper: samples its inner mapper failed
  std::size_t rescued = 0;        ///< ... of which the rescue met the error budget
  double rescueNanos = 0;         ///< approx map time on those samples
  std::size_t oracleFailures = 0;
  std::size_t matchingMismatches = 0;

  void merge(const ReplayCounts& o) {
    samples += o.samples;
    successes += o.successes;
    accepted += o.accepted;
    backtracks += o.backtracks;
    defects += o.defects;
    innerFailures += o.innerFailures;
    rescued += o.rescued;
    rescueNanos += o.rescueNanos;
    oracleFailures += o.oracleFailures;
    matchingMismatches += o.matchingMismatches;
  }
};

const char* mapperSpanName(const std::string& name) {
  if (name.rfind("approx", 0) == 0) return "map.mapper.approx";
  if (name.rfind("HBA", 0) == 0) return "map.mapper.hba";
  if (name == "EA-fast") return "map.mapper.fast-ea";
  return "map.mapper.other";
}

/// Re-run one experiment stage by stage through the library's public calls,
/// on the same pre-split sample streams runDefectExperiment uses, with a
/// span around every call. Spans go to lanes[slot] of the executing pool
/// slot; the calling thread is the pool's last slot.
ReplayCounts replayRequest(const Request& req, std::uint64_t seed, std::uint64_t op,
                           mcx::ExecutorPool& pool, std::vector<Lane>& lanes) {
  Lane* caller = &lanes[pool.workerCount()];
  const Scope apiSpan(caller, "api.run", op);
  mcx::FunctionMatrix fm;
  {
    const Scope span(caller, req.useCache ? "circuit.cache_hit" : "circuit.compile_cold", op);
    fm = mcx::compileCircuit(effectiveSpec(req), req.useCache)->fm;
  }
  const std::shared_ptr<const mcx::DefectModel> model =
      req.scenario != nullptr
          ? req.scenario
          : std::make_shared<mcx::IidBernoulli>(req.legacyOpen, req.legacyClosed);
  const std::string mapperName = req.mapper->name();
  const char* mapperSpan = mapperSpanName(mapperName);
  const bool approx = mapperName.rfind("approx", 0) == 0;
  // Exact mappers succeed iff a perfect matching exists; no mapper may
  // succeed without one.
  const bool exact = mapperName == "EA-fast" || mapperName.rfind("approx(EA-fast", 0) == 0;
  const double epsilon = req.epsilon.value_or(0.0);
  std::vector<mcx::Rng> streams;
  {
    const Scope span(caller, "mc.split", op);
    streams = mcx::splitSampleStreams(seed, req.samples);
  }
  const std::size_t rows = fm.rows() + req.spareRows;

  struct Slot {
    mcx::DefectMap defects;
    mcx::DirtyRows dirty;
    mcx::BitMatrix cm;
    mcx::MappingContext ctx;
    ReplayCounts counts;
  };
  std::vector<Slot> slots(pool.slots());
  {
    const Scope runSpan(caller, "mc.run", op);
    pool.run(req.samples, [&](std::size_t slot, std::size_t s) {
      Slot& sc = slots[slot];
      Lane* lane = &lanes[slot];
      const Scope sample(lane, "mc.sample", op);
      mcx::Rng rng = streams[s];
      {
        const Scope span(lane, "scenario.generate", op);
        model->generateTracked(rows, fm.cols(), rng, sc.defects, sc.dirty);
      }
      {
        const Scope span(lane, "xbar.derive", op);
        mcx::crossbarMatrixInto(sc.defects, sc.cm);
      }
      sc.ctx.setSample(&sc.defects, &sc.dirty);
      const mcx::BitMatrix* adjacency = nullptr;
      {
        const Scope span(lane, "map.adjacency", op);
        adjacency = &sc.ctx.candidateAdjacency(fm.bits(), sc.cm);
      }
      std::size_t matched = 0;
      {
        const Scope span(lane, "assign.hk", op);
        matched = mcx::hopcroftKarp(*adjacency).size;
      }
      mcx::MappingResult mapping;
      const Nanos mapStart = nowNanos();
      {
        const Scope span(lane, mapperSpan, op);
        mapping = req.mapper->map(fm, sc.cm, sc.ctx);
      }
      const double mapNanos = static_cast<double>(nowNanos() - mapStart);
      bool verified = true;
      if (mapping.success) {
        const Scope span(lane, "map.verify", op);
        verified = mcx::verifyMapping(fm, sc.cm, mapping);
      } else if (!mapping.droppedRows.empty()) {
        const Scope span(lane, "map.verify", op);
        verified = mcx::verifyPartialMapping(fm, sc.cm, mapping);
      }
      const Scope span(lane, "oracle.check", op);
      ReplayCounts& c = sc.counts;
      ++c.samples;
      c.defects += sc.defects.stuckOpenCount() + sc.defects.stuckClosedCount();
      const bool claimed = mapping.success || !mapping.droppedRows.empty();
      if (mapping.aborted || !verified || (claimed && !oracleAccepts(fm, sc.cm, mapping)))
        ++c.oracleFailures;
      const bool perfect = matched == fm.rows();
      if ((mapping.success && !perfect) || (exact && mapping.success != perfect))
        ++c.matchingMismatches;
      const bool accepted = mapping.realizedErrorOrBinary() <= epsilon;
      if (mapping.success) ++c.successes;
      if (accepted) ++c.accepted;
      c.backtracks += mapping.backtracks;
      if (approx && !mapping.success) {
        ++c.innerFailures;
        c.rescueNanos += mapNanos;
        if (accepted) ++c.rescued;
      }
    });
  }
  ReplayCounts total;
  for (const Slot& sc : slots) total.merge(sc.counts);
  return total;
}

/// One experiment of a traced replay, with the counts its untraced run (or
/// the daemon's response) reported.
struct ReplayItem {
  const Request* request = nullptr;
  std::uint64_t seed = 0;
  std::uint64_t op = 0;
  std::string label;
  bool probe = false;
  std::size_t successes = 0;
  std::size_t accepted = 0;
  std::size_t backtracks = 0;
};

struct ReplayLedger {
  std::vector<Lane> lanes;
  std::size_t laneCount = 1;
  double wallSeconds = 0;
  std::vector<std::uint64_t> probeOps;
  ReplayCounts own;     ///< the workload's own experiments
  ReplayCounts approx;  ///< every approx-mapper experiment, probes included
  std::map<std::string, std::pair<std::size_t, std::size_t>> cellSuccess;  ///< label -> (successes, samples)
};

/// Replay @p items on a @p laneCount-lane pool, checking every count
/// against the item's expectation and every sample with the oracle.
/// Returns the number of experiments that failed a check.
std::size_t tracedReplay(const std::vector<ReplayItem>& items, std::size_t laneCount,
                         ReplayLedger& ledger, Report& report) {
  mcx::ExecutorPool pool(laneCount);
  ledger.laneCount = laneCount;
  ledger.lanes.assign(pool.slots(), Lane{});
  std::size_t failedOps = 0;
  const Nanos start = nowNanos();
  for (const ReplayItem& item : items) {
    ReplayCounts c;
    try {
      c = replayRequest(*item.request, item.seed, item.op, pool, ledger.lanes);
    } catch (const std::exception& e) {
      ++failedOps;
      report.notes.push_back("replay " + item.label + " threw: " + e.what());
      continue;
    }
    const bool countsMatch = c.successes == item.successes && c.accepted == item.accepted &&
                             c.backtracks == item.backtracks;
    if (!countsMatch || c.oracleFailures != 0 || c.matchingMismatches != 0 ||
        c.accepted < c.successes) {
      ++failedOps;
      report.notes.push_back("replay mismatch " + item.label + " seed " +
                             std::to_string(item.seed) + ": replay " +
                             std::to_string(c.successes) + "/" + std::to_string(c.accepted) +
                             " vs run " + std::to_string(item.successes) + "/" +
                             std::to_string(item.accepted) + ", oracle failures " +
                             std::to_string(c.oracleFailures) + ", matching mismatches " +
                             std::to_string(c.matchingMismatches));
    }
    if (item.probe) {
      ledger.probeOps.push_back(item.op);
    } else {
      ledger.own.merge(c);
      auto& cell = ledger.cellSuccess[item.label];
      cell.first += c.successes;
      cell.second += c.samples;
    }
    if (item.request->mapper->name().rfind("approx", 0) == 0)
      ledger.approx.merge(c);
  }
  ledger.wallSeconds = secondsSince(start);
  return failedOps;
}

void writeTrace(const ReplayLedger& ledger, const Options& options, Report& report) {
  const std::string name = "trace-" + options.workload + ".json";
  report.notes.push_back(writeChromeTrace(ledger.lanes, options.workDir + "/" + name)
                             ? "Chrome trace of the replay: " + name
                             : "could not write " + name);
}

/// Append probe items for mapper families the workload's items never use.
void addProbes(std::vector<ReplayItem>& items, std::vector<Request>& probeRequests,
               mcx::ExecutorPool* pool, std::uint64_t seed, Report& report) {
  std::set<std::string> seen;
  for (const ReplayItem& item : items) seen.insert(mapperSpanName(item.request->mapper->name()));
  const std::vector<Cell>& cells = probeCells();
  probeRequests.reserve(cells.size());  // items point into this vector
  for (std::size_t k = 0; k < cells.size(); ++k) {
    probeRequests.push_back(parseLine(requestLine("probe", 1, cells[k].samples, cells[k].fields)));
    const Request& req = probeRequests.back();
    if (seen.count(mapperSpanName(req.mapper->name())) != 0) continue;
    const std::uint64_t s = opSeed(seed, 0, 100 + cells[k].group);
    const mcx::ExperimentResult r = runRequest(req, s, pool);
    report.notes.push_back("layer probe " + cells[k].label + " replayed (no " +
                           mapperSpanName(req.mapper->name()) + " calls in the workload)");
    items.push_back({&req, s, (std::uint64_t{1} << 40) + k, cells[k].label, true,
                     r.outcome.successes, r.outcome.epsilonAccepted, r.outcome.totalBacktracks});
  }
}

// ------------------------------------------------------- serve statistics

/// Fields of an ok experiment response, as the client saw it.
struct ServeSample {
  double latencyMs = 0;
  double lagMs = 0;
  double queueMs = 0;
  double synthMs = 0;
  double runMs = 0;
  double totalMs = 0;
};

bool statusOk(const std::string& reply) {
  try {
    return mcx::parseSpec(reply).stringOr("status", "") == "ok";
  } catch (const std::exception&) {
    return false;
  }
}

/// Check one response line against its request; false when it failed.
bool checkResponse(const ClientRecord& rec, const Request& req, ServeSample* sample,
                   std::size_t* completedOut, std::string* why) {
  if (!rec.answered) {
    *why = "no response";
    return false;
  }
  mcx::SpecValue doc;
  try {
    doc = mcx::parseSpec(rec.reply);
  } catch (const std::exception& e) {
    *why = std::string("unparsable response: ") + e.what();
    return false;
  }
  if (doc.stringOr("status", "") != "ok") {
    *why = "status " + doc.stringOr("status", "?") + ": " + rec.reply.substr(0, 200);
    return false;
  }
  const double completed = doc.numberOr("completed", -1);
  const double successes = doc.numberOr("successes", -1);
  if (completed != static_cast<double>(req.samples) || successes < 0 || successes > completed) {
    *why = "bad counts: " + rec.reply.substr(0, 200);
    return false;
  }
  if (req.epsilon.has_value() && doc.numberOr("epsilon_accepted", -1) < successes) {
    *why = "epsilon_accepted < successes: " + rec.reply.substr(0, 200);
    return false;
  }
  if (completedOut != nullptr) *completedOut = req.samples;
  if (sample != nullptr) {
    sample->latencyMs = rec.latencyMs;
    sample->lagMs = rec.lagMs;
    sample->queueMs = doc.numberOr("queue_ms", 0);
    sample->synthMs = doc.numberOr("synth_ms", 0);
    sample->runMs = doc.numberOr("run_ms", 0);
    sample->totalMs = doc.numberOr("total_ms", 0);
  }
  return true;
}

struct ServeStageQuantiles {
  double queueP50 = 0, queueP99 = 0, synthP99 = 0, runP50 = 0, runP99 = 0;
  double unattributedP50 = 0, transportP50 = 0, lagP99 = 0;
};

/// Per-stage quantiles of an open-loop phase. run_ms already contains
/// synth_ms, so total = queue + run + unattributed, and the client latency
/// from the due time = lag + transport + total, request by request.
ServeStageQuantiles serveStages(const std::vector<ServeSample>& samples, Report& report) {
  std::vector<double> queue, synth, run, unattributed, transport, lag, latency;
  for (const ServeSample& s : samples) {
    queue.push_back(s.queueMs);
    synth.push_back(s.synthMs);
    run.push_back(s.runMs);
    unattributed.push_back(s.totalMs - s.queueMs - s.runMs);
    transport.push_back(s.latencyMs - s.lagMs - s.totalMs);
    lag.push_back(s.lagMs);
    latency.push_back(s.latencyMs);
  }
  const auto tail = [&](const std::vector<double>& v, const char* what) {
    const std::optional<double> q = tailQuantile(v, 0.99);
    if (q) return *q;
    report.notes.push_back(std::string("p99 of ") + what + " has fewer than 10 samples beyond it (n=" +
                           std::to_string(v.size()) + "); reporting the maximum");
    return quantile(v, 1.0);
  };
  ServeStageQuantiles q;
  q.queueP50 = quantile(queue, 0.5);
  q.queueP99 = tail(queue, "queue_ms");
  q.synthP99 = tail(synth, "synth_ms");
  q.runP50 = quantile(run, 0.5);
  q.runP99 = tail(run, "run_ms");
  q.unattributedP50 = quantile(unattributed, 0.5);
  q.transportP50 = quantile(transport, 0.5);
  q.lagP99 = tail(lag, "send lag");
  report.notes.push_back(
      "serve accounting (means, ms): latency " + fmt(mcx::summarize(latency).mean) + " = lag " + fmt(mcx::summarize(lag).mean) +
      " + transport " + fmt(mcx::summarize(transport).mean) + " + queue " + fmt(mcx::summarize(queue).mean) + " + run " +
      fmt(mcx::summarize(run).mean) + " (synth " + fmt(mcx::summarize(synth).mean) + " inside) + unattributed " +
      fmt(mcx::summarize(unattributed).mean));
  return q;
}

/// A daemon plus four client connections, started and health-checked.
struct ServeSession {
  std::unique_ptr<Daemon> daemon;
  std::vector<std::unique_ptr<Connection>> conns;
  std::vector<Connection*> raw;
};

std::string socketPath(const Options& options) {
  return options.workDir + "/s" + std::to_string(::getpid()) + ".sock";
}

std::unique_ptr<Daemon> startDaemon(const Options& options, std::size_t poolThreads) {
  auto daemon = std::make_unique<Daemon>(options.serveBinary, socketPath(options), poolThreads,
                                         options.workDir + "/mcx_serve.log");
  if (!daemon->waitHealthy(30.0))
    throw std::runtime_error("mcx_serve did not answer a health probe");
  return daemon;
}

void connect(ServeSession& session, const Options& options, std::size_t count) {
  for (std::size_t k = 0; k < count; ++k) {
    session.conns.push_back(std::make_unique<Connection>(socketPath(options)));
    session.raw.push_back(session.conns.back().get());
  }
}

/// Drain the daemon with SIGTERM and require the graceful exit code 0.
void drainDaemon(ServeSession& session, Report& report) {
  session.raw.clear();
  session.conns.clear();
  const int code = session.daemon->drain(30.0);
  session.daemon.reset();
  if (code != 0)
    report.violation("mcx_serve SIGTERM drain exited with " + std::to_string(code));
}

/// The daemon's {"type":"stats"} snapshot: serve.* histograms as notes, and
/// the service's synthesis-run count.
double statsSnapshot(Connection& conn, Report& report) {
  const std::optional<std::string> reply =
      conn.roundTrip("{\"id\":\"stats\",\"type\":\"stats\"}", 30.0);
  if (!reply) {
    report.violation("no reply to the stats request");
    return 0;
  }
  double synthesisRuns = 0;
  try {
    const mcx::SpecValue doc = mcx::parseSpec(*reply);
    const mcx::SpecValue* stats = doc.find("stats");
    const mcx::SpecValue* service = stats != nullptr ? stats->find("service") : nullptr;
    if (service != nullptr) synthesisRuns = service->numberOr("synthesis_runs", 0);
    const mcx::SpecValue* registry = stats != nullptr ? stats->find("registry") : nullptr;
    const mcx::SpecValue* hists = registry != nullptr ? registry->find("histograms") : nullptr;
    if (hists != nullptr) {
      for (const auto& [name, h] : hists->members) {
        if (name.rfind("serve.", 0) != 0) continue;
        report.notes.push_back("daemon histogram " + name + ": count " +
                               fmt(h.numberOr("count", 0), 8) + " p50 " +
                               fmt(h.numberOr("p50_ms", 0)) + " ms p99 " +
                               fmt(h.numberOr("p99_ms", 0)) + " ms");
      }
    }
  } catch (const std::exception& e) {
    report.violation(std::string("unparsable stats reply: ") + e.what());
  }
  return synthesisRuns;
}

/// The daemon's peak RSS in MiB, from its {"type":"health"} snapshot.
double daemonPeakRssMb(Connection& conn, Report& report) {
  const std::optional<std::string> reply =
      conn.roundTrip("{\"id\":\"rss\",\"type\":\"health\"}", 30.0);
  try {
    if (reply) {
      const mcx::SpecValue doc = mcx::parseSpec(*reply);
      if (const mcx::SpecValue* health = doc.find("health"))
        return health->numberOr("peak_rss_bytes", 0) / (1 << 20);
    }
  } catch (const std::exception&) {
    // Reported below.
  }
  report.violation("no peak RSS in the daemon's health reply");
  return 0;
}

// ---------------------------------------------------------- layer metrics

/// Inputs of the per-layer section that every workload fills.
struct LayerInputs {
  const ReplayLedger* ledger = nullptr;
  double untracedSamplesPerSecond = 0;
  double runUsPerSample = 0;
  double apiOverheadMs = 0;
  double scalingEfficiency = 0;
  double compileColdMs = 0;
  double synthesisRuns = 0;
  double parseUs = 0;
  ServeStageQuantiles serve;
};

void addLayerMetrics(Report& report, const LayerInputs& in) {
  const ReplayLedger& ledger = *in.ledger;
  const std::map<std::string, StageTotals> own = stageTotals(ledger.lanes, ledger.probeOps);
  const std::map<std::string, StageTotals> all = stageTotals(ledger.lanes);
  const auto selfUs = [](const std::map<std::string, StageTotals>& totals, const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() || it->second.count == 0
               ? 0.0
               : it->second.selfNanos / 1e3 / static_cast<double>(it->second.count);
  };
  // map.mapper_us covers the workload's own calls; the per-family figures
  // include probes, so every family is measured on every workload.
  double mapperNanos = 0;
  std::uint64_t mapperCalls = 0;
  for (const auto& [name, t] : own) {
    if (name.rfind("map.mapper.", 0) != 0) continue;
    mapperNanos += t.selfNanos;
    mapperCalls += t.count;
  }
  const double mapperUs = mapperCalls == 0 ? 0.0 : mapperNanos / 1e3 / static_cast<double>(mapperCalls);
  const double adjacencyUs = selfUs(own, "map.adjacency");

  // Stage accounting over the whole traced wall: glue spans (api.run,
  // mc.run, mc.sample) and idle lanes are the unattributed remainder.
  double attributedNanos = 0;
  for (const auto& [name, t] : all)
    if (name != "api.run" && name != "mc.run" && name != "mc.sample") attributedNanos += t.selfNanos;
  const double laneWallNanos = ledger.wallSeconds * 1e9 * static_cast<double>(ledger.laneCount);
  const double unattributed = laneWallNanos > 0 ? 1.0 - attributedNanos / laneWallNanos : 0.0;
  std::ostringstream shares;
  shares << "stage shares of traced wall x " << ledger.laneCount << " lanes:";
  for (const auto& [name, t] : all)
    if (name != "api.run" && name != "mc.run" && name != "mc.sample")
      shares << " " << name << " " << fmt(100.0 * t.selfNanos / laneWallNanos, 3) << "%";
  shares << " + unattributed " << fmt(100.0 * unattributed, 3) << "% = 100%";
  report.notes.push_back(shares.str());

  const ReplayCounts& c = ledger.own;
  const double samples = static_cast<double>(std::max<std::size_t>(c.samples, 1));
  const double tracedRate = ledger.wallSeconds > 0 ? static_cast<double>(c.samples) / ledger.wallSeconds : 0;
  for (const auto& [label, cell] : ledger.cellSuccess)
    report.notes.push_back("cell " + label + ": replay successes " + std::to_string(cell.first) +
                           "/" + std::to_string(cell.second));

  report.add("scenario.generate_us", selfUs(own, "scenario.generate"), "us");
  report.add("scenario.defects_per_sample", static_cast<double>(c.defects) / samples, "count");
  report.add("xbar.derive_us", selfUs(own, "xbar.derive"), "us");
  report.add("map.adjacency_us", adjacencyUs, "us");
  report.add("map.mapper_us", mapperUs, "us");
  report.add("map.mapper_us.hba", selfUs(all, "map.mapper.hba"), "us");
  report.add("map.mapper_us.fast-ea", selfUs(all, "map.mapper.fast-ea"), "us");
  report.add("map.mapper_us.approx", selfUs(all, "map.mapper.approx"), "us");
  report.add("map.match_self_us", mapperUs - adjacencyUs, "us");
  report.add("map.verify_us", selfUs(own, "map.verify"), "us");
  report.add("map.success_ratio", static_cast<double>(c.successes) / samples, "ratio");
  report.add("map.backtracks_per_sample", static_cast<double>(c.backtracks) / samples, "count");
  report.add("assign.hk_us", selfUs(own, "assign.hk"), "us");
  const ReplayCounts& a = ledger.approx;
  report.add("approx.rescue_us",
             a.innerFailures == 0 ? 0.0 : a.rescueNanos / 1e3 / static_cast<double>(a.innerFailures),
             "us");
  report.add("approx.rescued_ratio",
             a.innerFailures == 0 ? 0.0 : static_cast<double>(a.rescued) / static_cast<double>(a.innerFailures),
             "ratio");
  report.add("mc.run_us_per_sample", in.runUsPerSample, "us");
  report.add("mc.unattributed_fraction", unattributed, "ratio");
  report.add("mc.scaling_efficiency", in.scalingEfficiency, "ratio");
  report.add("circuit.compile_cold_ms", in.compileColdMs, "ms");
  report.add("circuit.cache_hit_us", selfUs(own, "circuit.cache_hit"), "us");
  report.add("circuit.synthesis_runs", in.synthesisRuns, "count");
  report.add("api.overhead_ms", in.apiOverheadMs, "ms");
  report.add("serve.parse_us", in.parseUs, "us");
  report.add("serve.queue_wait_p50_ms", in.serve.queueP50, "ms");
  report.add("serve.queue_wait_p99_ms", in.serve.queueP99, "ms");
  report.add("serve.synth_p99_ms", in.serve.synthP99, "ms");
  report.add("serve.run_p50_ms", in.serve.runP50, "ms");
  report.add("serve.run_p99_ms", in.serve.runP99, "ms");
  report.add("serve.unattributed_p50_ms", in.serve.unattributedP50, "ms");
  report.add("tools.transport_p50_ms", in.serve.transportP50, "ms");
  report.add("loadgen.lag_p99_ms", in.serve.lagP99, "ms");
  report.add("ledger.traced_vs_untraced",
             in.untracedSamplesPerSecond > 0 ? tracedRate / in.untracedSamplesPerSecond : 0.0,
             "ratio");
}

/// Mean cold compile time (uncached pipeline) over @p requests' circuits.
double compileColdMs(const std::vector<const Request*>& requests) {
  std::set<std::string> seen;
  std::vector<double> millis;
  for (const Request* req : requests) {
    const mcx::CircuitSpec spec = effectiveSpec(*req);
    if (!seen.insert(spec.canonical()).second) continue;
    for (int rep = 0; rep < 3; ++rep) {
      const Nanos start = nowNanos();
      (void)mcx::compileCircuit(spec, false);
      millis.push_back(static_cast<double>(nowNanos() - start) / 1e6);
    }
  }
  return mcx::summarize(millis).mean;
}

/// Mean serve::parseRequest time over @p lines.
double parseUs(const std::vector<std::string>& lines) {
  std::size_t calls = 0;
  const Nanos start = nowNanos();
  for (int rep = 0; rep < 20; ++rep)
    for (const std::string& line : lines) {
      (void)parseLine(line);
      ++calls;
    }
  return calls == 0 ? 0.0 : static_cast<double>(nowNanos() - start) / 1e3 / static_cast<double>(calls);
}

/// Samples per second of @p requests run round-robin for @p seconds on a
/// @p lanes-lane pool (untraced).
double roundRobinRate(const std::vector<const Request*>& requests, std::size_t lanes,
                      double seconds, std::uint64_t seed) {
  std::optional<mcx::ExecutorPool> pool;
  if (lanes > 1) pool.emplace(lanes);
  std::size_t samples = 0;
  const Nanos start = nowNanos();
  for (std::size_t i = 0; secondsSince(start) < seconds || i < requests.size(); ++i) {
    const Request& req = *requests[i % requests.size()];
    samples += runRequest(req, opSeed(seed, i, 0), pool ? &*pool : nullptr).outcome.completed;
  }
  return static_cast<double>(samples) / secondsSince(start);
}

double scalingEfficiency(const std::vector<const Request*>& requests, double seconds,
                         std::uint64_t seed, Report& report) {
  const std::size_t n = hostLanes();
  const double one = roundRobinRate(requests, 1, seconds, seed);
  const double many = roundRobinRate(requests, n, seconds, seed);
  report.notes.push_back("scaling: " + fmt(one) + " samples/s on 1 lane, " + fmt(many) +
                         " on " + std::to_string(n));
  return one > 0 ? many / (static_cast<double>(n) * one) : 0.0;
}

// ------------------------------------------------------------ mc workloads

struct OpRecord {
  std::size_t cell = 0;
  std::uint64_t seed = 0;
  bool ok = false;
  std::size_t completed = 0;
  std::size_t successes = 0;
  std::size_t accepted = 0;
  std::size_t backtracks = 0;
  double latencyMs = 0;
  double endSeconds = 0;  ///< completion time from the start of the loop
  double laneMs = 0;             ///< the call's process CPU time over the lane count
  double endLaneSeconds = 0;     ///< the same, summed from the start of the loop
  double synthMs = 0;
  double mcMs = 0;
};

/// Parsed cells plus the shared pool: the state set-up produces.
struct McState {
  std::vector<Request> requests;
  std::unique_ptr<mcx::ExecutorPool> pool;
};

/// Registry resolution, cold compile with the cache cleared, pool start.
McState setUp(const McWorkload& w) {
  McState state;
  for (const Cell& cell : w.cells)
    state.requests.push_back(parseLine(requestLine("setup", 1, cell.samples, cell.fields)));
  mcx::CircuitCache::global().clear();
  for (const Request& req : state.requests) (void)mcx::compileCircuit(effectiveSpec(req), true);
  if (w.lanes > 1) state.pool = std::make_unique<mcx::ExecutorPool>(w.lanes);
  return state;
}

/// Lane-seconds: process CPU time divided by the lane count, i.e. the wall
/// time the work would take with every lane on a core of its own. The pool
/// blocks rather than spins when idle, so only work is counted.
double laneSecondsSince(Nanos cpuStart, std::size_t lanes) {
  return static_cast<double>(processCpuNanos() - cpuStart) / 1e9 / static_cast<double>(lanes);
}

/// Closed loop of run() calls, whole rounds over the cells, until @p seconds
/// have passed. Each result is checked; a round's fast-ea successes must be
/// at least its hba successes on the same draws. A non-null @p rotation
/// moves the (single-lane) loop to the next core every 8 rounds.
std::vector<OpRecord> runRounds(const McWorkload& w, McState& state, std::uint64_t seed,
                                double seconds, CoreRotation* rotation, Report& report,
                                double* wallSeconds, double* laneSeconds) {
  std::vector<OpRecord> records;
  const Nanos start = nowNanos();
  const Nanos cpuStart = processCpuNanos();
  for (std::size_t round = 0; records.empty() || secondsSince(start) < seconds; ++round) {
    if (rotation != nullptr && round % 8 == 0) rotation->next();
    std::map<int, std::map<std::string, std::size_t>> groupSuccess;
    for (std::size_t k = 0; k < w.cells.size(); ++k) {
      const Request& req = state.requests[k];
      OpRecord rec;
      rec.cell = k;
      rec.seed = opSeed(seed, round, w.cells[k].group);
      const Nanos t0 = nowNanos();
      const Nanos c0 = processCpuNanos();
      try {
        const mcx::ExperimentResult r = runRequest(req, rec.seed, state.pool.get());
        rec.latencyMs = static_cast<double>(nowNanos() - t0) / 1e6;
        rec.completed = r.outcome.completed;
        rec.successes = r.outcome.successes;
        rec.accepted = r.outcome.epsilonAccepted;
        rec.backtracks = r.outcome.totalBacktracks;
        rec.synthMs = r.synthesisMillis;
        rec.mcMs = r.mcRunMillis;
        rec.ok = !r.outcome.aborted && rec.completed == req.samples &&
                 rec.successes <= rec.completed && rec.accepted >= rec.successes;
        if (!rec.ok) report.notes.push_back("bad result for " + w.cells[k].label);
      } catch (const std::exception& e) {
        rec.latencyMs = static_cast<double>(nowNanos() - t0) / 1e6;
        report.notes.push_back("run() threw for " + w.cells[k].label + ": " + e.what());
      }
      rec.endSeconds = secondsSince(start);
      rec.laneMs = laneSecondsSince(c0, w.lanes) * 1e3;
      rec.endLaneSeconds = laneSecondsSince(cpuStart, w.lanes);
      groupSuccess[w.cells[k].group][mapperSpanName(req.mapper->name())] = rec.successes;
      records.push_back(rec);
    }
    for (const auto& [group, byMapper] : groupSuccess) {
      const auto hba = byMapper.find("map.mapper.hba");
      const auto exact = byMapper.find("map.mapper.fast-ea");
      if (hba != byMapper.end() && exact != byMapper.end() && exact->second < hba->second)
        report.violation("fast-ea successes below hba on identical draws (group " +
                         std::to_string(group) + ", round " + std::to_string(round) + ")");
    }
  }
  *wallSeconds = secondsSince(start);
  *laneSeconds = laneSecondsSince(cpuStart, w.lanes);
  return records;
}

Report runMc(const McWorkload& w, const Options& options) {
  Report report;
  report.notes.push_back("workload " + w.name + ": closed loop of ExperimentBuilder::run() on " +
                         std::to_string(w.lanes) + " lane(s), " + std::to_string(w.cells.size()) +
                         " cells per round");
  // Set-up, repeated: setup_s is the median of its process CPU time (set-up
  // is compute only, single-threaded but for the pool start). All of the
  // reps take a few tens of milliseconds, so half run before the timed
  // phase and half after it, and one slow host episode cannot cover them
  // all. The last state is kept. A single-lane workload rotates over the
  // cores during set-up and the timed phase; the mask is restored before
  // any other thread or process starts, since they would inherit it.
  std::optional<CoreRotation> rotation;
  if (w.lanes == 1) rotation.emplace();
  std::vector<double> setups, setupWalls;
  McState state;
  const auto setUpReps = [&](int reps) {
    for (int rep = 0; rep < reps; ++rep) {
      if (rotation) rotation->next();
      state = McState{};
      const Nanos start = nowNanos();
      const Nanos cpuStart = processCpuNanos();
      state = setUp(w);
      setups.push_back(laneSecondsSince(cpuStart, 1));
      setupWalls.push_back(secondsSince(start));
    }
  };
  setUpReps(options.trace ? 1 : 16);
  // clear() resets the cache statistics, so this counts the last set-up.
  const double synthesisRuns =
      static_cast<double>(mcx::CircuitCache::global().stats().coverMisses);

  // One untimed round lets lazy per-mapper state fill before timing.
  double warmWall = 0, warmLane = 0;
  (void)runRounds(w, state, options.seed ^ 0xffff, 0.0, nullptr, report, &warmWall, &warmLane);

  const double timedSeconds = options.trace ? options.seconds * 0.3 : options.seconds;
  double wall = 0, laneTotal = 0;
  const std::vector<OpRecord> records = runRounds(
      w, state, options.seed, timedSeconds, rotation ? &*rotation : nullptr, report, &wall, &laneTotal);
  if (!options.trace) setUpReps(15);
  if (rotation)
    report.notes.push_back("single lane rotated over " + std::to_string(rotation->cores()) +
                           " cores, to the next every 8 rounds");
  rotation.reset();

  std::size_t samples = 0;
  std::vector<double> latency, laneLatency, overhead, laneEnds, completed, ones;
  double mcMillis = 0;
  for (const OpRecord& rec : records) {
    ++report.attempted;
    if (!rec.ok) ++report.failed;
    samples += rec.completed;
    latency.push_back(rec.latencyMs);
    laneLatency.push_back(rec.laneMs);
    overhead.push_back(rec.latencyMs - rec.synthMs - rec.mcMs);
    laneEnds.push_back(rec.endLaneSeconds);
    completed.push_back(static_cast<double>(rec.completed));
    ones.push_back(1.0);
    mcMillis += rec.mcMs;
  }
  const double samplesPerSecond = static_cast<double>(samples) / wall;
  const std::vector<double> sampleRates = sliceRates(laneEnds, completed, 1.0, laneTotal);
  std::ostringstream slices;
  slices << "samples per lane-second, per 1 s slice:";
  for (const double r : sampleRates) slices << " " << fmt(r);
  report.notes.push_back(slices.str());
  // Wall figures for comparison: the lane share is below 1 when the host
  // kept lanes off their cores, or when lanes idled at the end of a run().
  report.notes.push_back("wall: " + fmt(samplesPerSecond) + " samples/s, run() p50 " +
                         fmt(windowedQuantile(latency, kP50Window, 0.5)) + " ms, set-up " +
                         fmt(median(setupWalls)) + " s; lane share of the wall " +
                         fmt(laneTotal / wall, 3));
  std::ostringstream setupNote;
  setupNote << "set-up reps, CPU ms:";
  for (const double s : setups) setupNote << " " << fmt(s * 1e3, 3);
  report.notes.push_back(setupNote.str());
  std::vector<double> cellMillis(w.cells.size(), 0.0), cellCalls(w.cells.size(), 0.0);
  for (const OpRecord& rec : records) {
    cellMillis[rec.cell] += rec.laneMs;
    cellCalls[rec.cell] += 1;
  }
  for (std::size_t k = 0; k < w.cells.size(); ++k)
    report.notes.push_back("cell " + w.cells[k].label + ": " +
                           fmt(100.0 * cellMillis[k] / (laneTotal * 1e3), 3) +
                           "% of the timed lane time, " + fmt(cellMillis[k] / cellCalls[k]) +
                           " lane-ms per call");
  report.notes.push_back("timed phase: " + std::to_string(records.size()) + " run() calls, " +
                         std::to_string(samples) + " samples in " + fmt(wall) + " s (" +
                         fmt(samplesPerSecond) + " samples/s overall)");

  if (!options.trace) {
    if (!tailQuantile(laneLatency, 0.99))
      report.notes.push_back("run() p99 has fewer than 10 samples beyond it (n=" +
                             std::to_string(laneLatency.size()) + ")");
    report.add("samples_per_s", median(sampleRates), "1/s");
    report.add("setup_s", median(setups), "s");
    report.add("peak_rss_mb", ownPeakRssMb(), "MB");
    report.add("serve_p50_ms", windowedQuantile(laneLatency, kP50Window, 0.5), "ms");
    report.add("serve_p99_ms", windowedQuantile(laneLatency, kP99Window, 0.99), "ms");
    report.add("serve_capacity_rps", median(sliceRates(laneEnds, ones, 1.0, laneTotal)), "1/s");
    return report;
  }

  // ---- traced run: replay the timed rounds stage by stage.
  std::vector<ReplayItem> items;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const OpRecord& rec = records[i];
    if (!rec.ok) continue;
    items.push_back({&state.requests[rec.cell], rec.seed, i, w.cells[rec.cell].label, false,
                     rec.successes, rec.accepted, rec.backtracks});
  }
  // Replay whole rounds only, at most kReplaySamples samples.
  std::size_t roundSamples = 0;
  for (const Cell& cell : w.cells) roundSamples += cell.samples;
  const std::size_t rounds = std::max<std::size_t>(1, kReplaySamples / roundSamples);
  items.resize(std::min(items.size(), rounds * w.cells.size()));
  std::vector<Request> probeRequests;
  addProbes(items, probeRequests, state.pool.get(), options.seed, report);
  ReplayLedger ledger;
  report.failed += tracedReplay(items, w.lanes, ledger, report);
  writeTrace(ledger, options, report);

  std::vector<const Request*> reqs;
  std::vector<std::string> lines;
  for (std::size_t k = 0; k < w.cells.size(); ++k) {
    reqs.push_back(&state.requests[k]);
    lines.push_back(requestLine(idOf("p", k), opSeed(options.seed, 0, 0),
                                w.cells[k].samples, w.cells[k].fields));
  }

  LayerInputs in;
  in.ledger = &ledger;
  in.untracedSamplesPerSecond = samplesPerSecond;
  in.runUsPerSample = samples == 0 ? 0.0 : mcMillis * 1e3 / static_cast<double>(samples);
  in.apiOverheadMs = median(overhead);
  in.scalingEfficiency = scalingEfficiency(reqs, options.seconds * 0.06, options.seed, report);
  in.compileColdMs = compileColdMs(reqs);
  in.synthesisRuns = synthesisRuns;
  in.parseUs = parseUs(lines);

  // The same cells served by a daemon, open loop at about half the
  // in-process rate: the serve, tools and loadgen layers of this mix.
  ServeSession session;
  session.daemon = startDaemon(options, w.lanes);
  connect(session, options, 4);
  const double opRate = static_cast<double>(records.size()) / wall;
  std::vector<std::string> sessionLines;
  std::vector<std::size_t> sessionCells;
  for (std::size_t i = 0; i < kMinOpenLoopRequests; ++i) {
    const std::size_t k = i % w.cells.size();
    sessionCells.push_back(k);
    sessionLines.push_back(requestLine(idOf("m", i),
                                       opSeed(options.seed, 1000 + i / w.cells.size(), w.cells[k].group),
                                       w.cells[k].samples, w.cells[k].fields));
  }
  const std::vector<double> due =
      poissonSchedule(options.seed, 0.5 * opRate, sessionLines.size());
  const std::vector<ClientRecord> sessionRecords =
      runOpenLoop(session.raw, sessionLines, due, "m", 60.0);
  std::vector<ServeSample> serveSamples;
  for (std::size_t i = 0; i < sessionRecords.size(); ++i) {
    ++report.attempted;
    ServeSample s;
    std::string why;
    if (!checkResponse(sessionRecords[i], state.requests[sessionCells[i]], &s, nullptr, &why)) {
      ++report.failed;
      report.notes.push_back("daemon request m" + std::to_string(i) + ": " + why);
      continue;
    }
    serveSamples.push_back(s);
  }
  (void)statsSnapshot(*session.raw.front(), report);
  drainDaemon(session, report);
  in.serve = serveStages(serveSamples, report);
  addLayerMetrics(report, in);
  return report;
}

// ----------------------------------------------------------- serve workload

/// One request family of the serve mix. Sample counts are drawn
/// log-uniformly from [minSamples, maxSamples], which keeps the latency
/// distribution free of steps a percentile could sit on.
struct MixEntry {
  std::string fields;
  std::size_t minSamples;
  std::size_t maxSamples;
};

struct ServeMix {
  std::vector<MixEntry> warm;     ///< ~70%: cached circuits
  std::vector<MixEntry> approx;   ///< ~20%: "epsilon" requests
  std::vector<MixEntry> cold;     ///< ~10%: cache bypass or first-seen gen: circuits
};

const ServeMix& serveMix() {
  static const ServeMix mix = [] {
    ServeMix m;
    // Sample ranges shrink with circuit size so no request costs more than
    // about 5 ms: the dense legacy sampler on the 289x299 bw multi-level
    // crossbar alone is about 0.15 ms per sample.
    struct WarmCircuit {
      std::string fields;
      std::size_t maxSamples;        ///< paper-iid and clustered
      std::size_t maxLegacySamples;  ///< dense legacy i.i.d.
    };
    const std::vector<WarmCircuit> circuits = {
        {"\"circuit\":\"rd53\"", 400, 400},
        {"\"circuit\":\"sqrt8\"", 400, 400},
        {"\"circuit\":\"misex1\"", 400, 400},
        {"\"circuit\":\"bw\"", 400, 400},
        {"\"circuit\":\"sao2\"", 400, 400},
        {"\"circuit\":\"squar5\"", 400, 400},
        {"\"circuit\":\"rd53\",\"multilevel\":true", 200, 200},
        {"\"circuit\":\"sqrt8\",\"multilevel\":true", 200, 200},
        {"\"circuit\":\"bw\",\"multilevel\":true", 60, 20}};
    for (const WarmCircuit& c : circuits)
      for (const char* mapper : {"hba", "fast-ea"}) {
        const std::string head = c.fields + ",\"mapper\":\"" + mapper + "\",";
        m.warm.push_back({head + iid(0.10), 50, c.maxSamples});
        m.warm.push_back({head + "\"scenario\":\"clustered\",\"rate\":0.01", 50, c.maxSamples});
        m.warm.push_back({head + "\"open\":0.05", std::min<std::size_t>(50, c.maxLegacySamples),
                          c.maxLegacySamples});
      }
    const std::string approx = "\"mapper\":\"approx\",\"epsilon\":0.05,";
    m.approx = {{"\"circuit\":\"rd53-min\"," + approx + iid(0.25), 50, 100},
                {"\"circuit\":\"nn-small\"," + approx + iid(0.20), 50, 100}};
    for (const char* c : {"rd53-min", "sqrt8-min"})
      m.cold.push_back({std::string("\"circuit\":\"") + c + "\",\"cache\":false,\"mapper\":\"hba\"," + iid(0.10), 50, 50});
    for (const char* c : {"gen:weight5", "gen:weight6", "gen:weight7", "gen:majority5",
                          "gen:majority7", "gen:parity4", "gen:parity5", "gen:adder2"})
      m.cold.push_back({std::string("\"circuit\":\"") + c + "\",\"mapper\":\"hba\"," + iid(0.10), 50, 50});
    return m;
  }();
  return mix;
}

/// Seeded request line @p i of the mix (id "<prefix><i>").
std::string mixLine(mcx::Rng& rng, const std::string& prefix, std::size_t i) {
  const ServeMix& mix = serveMix();
  const double u = rng.uniform();
  const std::vector<MixEntry>& family = u < 0.7 ? mix.warm : (u < 0.9 ? mix.approx : mix.cold);
  const MixEntry& entry = family[rng.uniformInt(0, family.size() - 1)];
  const double lo = std::log(static_cast<double>(entry.minSamples));
  const double hi = std::log(static_cast<double>(entry.maxSamples));
  const auto samples = static_cast<std::size_t>(std::lround(std::exp(lo + (hi - lo) * rng.uniform())));
  return requestLine(idOf(prefix.c_str(), i), rng.uniformInt(0, (1u << 31) - 1), samples,
                     entry.fields);
}

Report runServe(const Options& options) {
  Report report;
  const std::size_t lanes = hostLanes();
  report.notes.push_back("workload serve-open-loop: mcx_serve --pool-threads " +
                         std::to_string(lanes) + ", 4 connections, open loop at " +
                         fmt(kServeOpenLoopRate) + " req/s then closed loop");

  // Set-up, repeated: daemon start until it answers health, then one
  // request per warm declaration so their circuits compile cold.
  std::vector<std::string> warmup;
  for (std::size_t k = 0; k < serveMix().warm.size(); k += 3)
    warmup.push_back(requestLine(idOf("w", k), 1, 1, serveMix().warm[k].fields));
  std::vector<double> setups;
  ServeSession session;
  const int setupReps = options.trace ? 1 : 5;
  for (int rep = 0; rep < setupReps; ++rep) {
    if (session.daemon) drainDaemon(session, report);
    const Nanos start = nowNanos();
    session.daemon = startDaemon(options, lanes);
    connect(session, options, 4);
    for (const std::string& line : warmup) {
      const std::optional<std::string> reply = session.raw.front()->roundTrip(line, 60.0);
      if (!reply || !statusOk(*reply)) report.violation("warm-up request failed: " + line);
    }
    setups.push_back(secondsSince(start));
  }

  // Phase 1: open loop.
  const double openSeconds = options.seconds * 0.7;
  const std::size_t openCount = std::max<std::size_t>(
      kMinOpenLoopRequests, static_cast<std::size_t>(kServeOpenLoopRate * openSeconds));
  mcx::Rng mixRng(mix64(options.seed) ^ 0x6d69780000000001ull);
  std::vector<std::string> openLines;
  for (std::size_t i = 0; i < openCount; ++i) openLines.push_back(mixLine(mixRng, "o", i));
  std::vector<Request> openRequests;
  for (const std::string& line : openLines) openRequests.push_back(parseLine(line));
  const std::vector<double> due = poissonSchedule(options.seed, kServeOpenLoopRate, openCount);
  const std::vector<ClientRecord> open = runOpenLoop(session.raw, openLines, due, "o", 60.0);

  std::vector<ServeSample> openSamples;
  std::vector<std::size_t> okOpen;
  for (std::size_t i = 0; i < open.size(); ++i) {
    ++report.attempted;
    ServeSample s;
    std::string why;
    if (!checkResponse(open[i], openRequests[i], &s, nullptr, &why)) {
      ++report.failed;
      report.notes.push_back("open-loop request o" + std::to_string(i) + ": " + why);
      continue;
    }
    openSamples.push_back(s);
    okOpen.push_back(i);
  }

  // Phase 2: closed loop, four connections each waiting for its reply.
  std::vector<std::string> closedLines;
  std::vector<Request> closedRequests;
  const auto closedLine = [&](std::size_t i) {
    while (closedLines.size() <= i) {
      closedLines.push_back(mixLine(mixRng, "c", closedLines.size()));
      closedRequests.push_back(parseLine(closedLines.back()));
    }
    return closedLines[i];
  };
  double closedWall = 0;
  const std::vector<ClientRecord> closed = runClosedLoop(
      session.raw, closedLine, "c", std::max(1.5, options.seconds * 0.2), &closedWall);
  std::size_t closedOk = 0;
  std::vector<double> closedDone, closedSamples, closedOnes;
  for (std::size_t i = 0; i < closed.size(); ++i) {
    ++report.attempted;
    std::size_t completed = 0;
    std::string why;
    if (!checkResponse(closed[i], closedRequests[i], nullptr, &completed, &why)) {
      ++report.failed;
      report.notes.push_back("closed-loop request c" + std::to_string(i) + ": " + why);
      continue;
    }
    ++closedOk;
    closedDone.push_back(closed[i].doneSeconds);
    closedSamples.push_back(static_cast<double>(completed));
    closedOnes.push_back(1.0);
  }
  const double synthesisRuns = statsSnapshot(*session.raw.front(), report);
  const double peakRss = daemonPeakRssMb(*session.raw.front(), report);
  drainDaemon(session, report);
  report.notes.push_back("open loop: " + std::to_string(openSamples.size()) + "/" +
                         std::to_string(openCount) + " ok; closed loop: " +
                         std::to_string(closedOk) + "/" + std::to_string(closed.size()) +
                         " ok in " + fmt(closedWall) + " s");

  // Re-derive a seeded subset of open-loop responses in-process; the
  // traced run replays a larger subset stage by stage.
  mcx::Rng pick(mix64(options.seed) ^ 0x7069636b00000001ull);
  pick.shuffle(okOpen);
  okOpen.resize(std::min<std::size_t>(okOpen.size(), options.trace ? 120 : 24));
  std::sort(okOpen.begin(), okOpen.end());
  mcx::ExecutorPool pool(lanes);
  std::vector<ReplayItem> items;
  std::vector<double> overhead;
  double mcMillis = 0;
  std::size_t rederivedSamples = 0;
  for (const std::size_t i : okOpen) {
    const Request& req = openRequests[i];
    const mcx::SpecValue doc = mcx::parseSpec(open[i].reply);
    const Nanos t0 = nowNanos();
    const mcx::ExperimentResult r = runRequest(req, req.seed, &pool);
    overhead.push_back(static_cast<double>(nowNanos() - t0) / 1e6 - r.synthesisMillis - r.mcRunMillis);
    mcMillis += r.mcRunMillis;
    rederivedSamples += r.outcome.completed;
    const auto successes = static_cast<double>(r.outcome.successes);
    if (doc.numberOr("successes", -1) != successes ||
        doc.numberOr("epsilon_accepted", successes) != static_cast<double>(r.outcome.epsilonAccepted) ||
        doc.numberOr("total_backtracks", -1) != static_cast<double>(r.outcome.totalBacktracks)) {
      ++report.failed;
      report.notes.push_back("re-derived o" + std::to_string(i) + " differs from the daemon");
      continue;
    }
    items.push_back({&req, req.seed, i, idOf("o", i), false, r.outcome.successes,
                     r.outcome.epsilonAccepted, r.outcome.totalBacktracks});
  }
  report.notes.push_back("re-derived " + std::to_string(okOpen.size()) +
                         " responses in-process: identical counts required");

  const ServeStageQuantiles stages = serveStages(openSamples, report);
  if (!options.trace) {
    std::vector<double> latency;
    for (const ServeSample& s : openSamples) latency.push_back(s.latencyMs);
    if (!tailQuantile(latency, 0.99)) report.violation("open-loop p99 has fewer than 10 samples beyond it");
    report.add("samples_per_s", median(sliceRates(closedDone, closedSamples, 1.0, closedWall)), "1/s");
    report.add("setup_s", median(setups), "s");
    report.add("peak_rss_mb", peakRss, "MB");
    report.add("serve_p50_ms", windowedQuantile(latency, kP50Window, 0.5), "ms");
    report.add("serve_p99_ms", windowedQuantile(latency, kP99Window, 0.99), "ms");
    report.add("serve_capacity_rps", median(sliceRates(closedDone, closedOnes, 1.0, closedWall)), "1/s");
    std::ostringstream dist;
    dist << "open-loop latency over " << latency.size() << " requests (p99 with "
         << samplesBeyond(latency.size(), 0.99) << " beyond), ms:";
    for (const double q : {0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 0.99})
      dist << " p" << q * 100 << " " << fmt(quantile(latency, q));
    report.notes.push_back(dist.str());
    return report;
  }

  // ---- traced run.
  const double untracedRate = mcMillis > 0 ? static_cast<double>(rederivedSamples) / (mcMillis / 1e3) : 0;
  std::vector<Request> probeRequests;
  addProbes(items, probeRequests, &pool, options.seed, report);
  ReplayLedger ledger;
  report.failed += tracedReplay(items, lanes, ledger, report);
  writeTrace(ledger, options, report);

  std::vector<const Request*> reqs;
  for (const std::size_t i : okOpen) reqs.push_back(&openRequests[i]);
  LayerInputs in;
  in.ledger = &ledger;
  in.untracedSamplesPerSecond = untracedRate;
  in.runUsPerSample = rederivedSamples == 0 ? 0.0 : mcMillis * 1e3 / static_cast<double>(rederivedSamples);
  in.apiOverheadMs = median(overhead);
  in.scalingEfficiency = scalingEfficiency(reqs, options.seconds * 0.06, options.seed, report);
  in.compileColdMs = compileColdMs(reqs);
  in.synthesisRuns = synthesisRuns;
  in.parseUs = parseUs(openLines);
  in.serve = stages;
  addLayerMetrics(report, in);
  return report;
}

}  // namespace

Report runWorkload(const Options& options) {
  if (options.workload == "mc-multilevel") return runMc(mcMultilevel(), options);
  if (options.workload == "mc-twolevel-mixed") return runMc(mcTwolevelMixed(), options);
  if (options.workload == "serve-open-loop") return runServe(options);
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

}  // namespace perfbench
