// Chaos soak: the experiment service under seeded randomized fault weather.
//
// Arms every compiled-in faultinject site PROBABILISTICALLY (seeded draws —
// the same --seed replays the same storm), bounds the shared circuit cache
// below the workload's working set so eviction churn runs the whole time,
// turns on the full governance surface (cost-aware admission, per-client
// buckets, batch shedding, sample degradation, the stuck-request watchdog),
// then hammers a live in-process service from several client threads with a
// randomized schedule of valid, malformed, oversized, probe, batch and
// deadline-carrying requests for a fixed wall budget.
//
// The soak is an executable robustness contract, not a measurement:
//   - zero crashes and a clean drain (the suite exits 0)
//   - response conservation: every submitted line yields exactly one
//     response, and the taxonomy counters sum back to `received`
//   - the bounded cache really cycled (evictions > 0, bytes <= budget)
//   - injected faults really flowed (fired() > 0 across the armed sites)
//   - peak RSS stayed under start + slack (no leak under fault churn)
//
// Usage:
//   mcx_bench chaos-soak [--seconds S] [--clients N] [--seed S]
//                        [--cache-budget-kb KB] [--max-rss-growth-mb MB]
//                        [--faults SPEC] [--json PATH]
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/driver.hpp"
#include "circuit/cache.hpp"
#include "serve/service.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/process.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/text_table.hpp"

namespace {

using namespace mcx;
using serve::ExperimentService;
using serve::ServiceCounters;
using serve::ServiceOptions;

struct SoakConfig {
  double seconds = 10;
  std::size_t clients = 4;
  std::uint64_t seed = 0xc4a05;
  std::size_t cacheBudgetKb = 24;  ///< below the mixed circuits' working set
  std::size_t maxRssGrowthMb = 512;
  // Every site armed, none deterministic: most requests succeed, the rest
  // exercise the throw / allocation-failure / deadline-stall paths.
  std::string faults =
      "circuit.synthesize=throw%2;mc.sample=stall:1%1;serve.enqueue=badalloc%1;"
      "approx.evaluate=throw%2";
};

/// One client's next request line, drawn from its own deterministic stream.
std::string drawLine(Rng& rng, std::size_t client, std::uint64_t serial) {
  const char* const circuits[] = {"rd53-min", "sqrt8-min", "majority7-min", "bw", "t481"};
  const int draw = rng.uniformInt(0, 99);
  // Built with append: GCC 12's -Wrestrict misfires on operator+ chains
  // that start from a string literal.
  std::string id = "c";
  id.append(std::to_string(client)).append("-").append(std::to_string(serial));
  std::string line;
  if (draw < 5) return line.append(R"({"type": "health", "id": ")").append(id).append("\"}");
  if (draw < 8) return line.append(R"({"type": "stats", "id": ")").append(id).append("\"}");
  if (draw < 13) {  // malformed: truncated JSON, the parse path is on duty
    return line.append(R"({"id": ")").append(id).append(R"(", "circuit": )");
  }
  if (draw < 16) {  // oversized: must be answered and bounded, not buffered
    return line.append(R"({"id": ")").append(id).append(R"(", "circuit": ")").append(5000, 'x')
        .append("\"}");
  }
  std::ostringstream req;
  req << "{\"id\": \"" << id << "\"";
  req << ", \"circuit\": \"" << circuits[rng.uniformInt(0, 4)] << "\"";
  if (rng.bernoulli(0.3)) req << ", \"multilevel\": " << (rng.bernoulli(0.5) ? "true" : "false");
  // Graded draws exercise the approx rescue path (and its approx.evaluate
  // fault site) plus the epsilon response fields under churn.
  if (rng.bernoulli(0.2)) {
    req << R"(, "mapper": {"mapper": "approx", "inner": "fast-ea", "epsilon": 1.0})";
    req << ", \"epsilon\": 0." << rng.uniformInt(0, 9);
  }
  if (draw < 20) {  // deliberately expensive: feeds the cost/bucket shedders
    req << ", \"samples\": " << rng.uniformInt(500, 2000);
  } else {
    req << ", \"samples\": " << rng.uniformInt(5, 30);
  }
  req << ", \"seed\": " << rng.uniformInt(1, 1u << 20);
  if (rng.bernoulli(0.25)) req << ", \"deadline_ms\": " << rng.uniformInt(5, 60);
  if (rng.bernoulli(0.15)) req << ", \"lane\": \"batch\"";
  req << "}";
  return req.str();
}

int runChaosSoak(const std::vector<std::string>& args) {
  SoakConfig config;
  bench::CommonOptions common;

  cli::ArgParser parser("mcx_bench chaos-soak",
                        "seeded fault-injection soak of the experiment service "
                        "(conservation, bounded cache, bounded RSS, clean drain)");
  common.addSeedTo(parser);
  common.addJsonTo(parser);
  parser.add("--seconds", &config.seconds, "S", "wall budget (default 10)");
  parser.add("--clients", &config.clients, "N", "client threads (default 4)");
  parser.add("--cache-budget-kb", &config.cacheBudgetKb, "KB",
             "circuit-cache byte budget; keep it below the working set so "
             "eviction churn runs throughout (default 24)");
  parser.add("--max-rss-growth-mb", &config.maxRssGrowthMb, "MB",
             "peak-RSS growth allowed over the soak (default 512)");
  parser.add("--faults", &config.faults, "SPEC",
             "MCX_FAULTINJECT-style plan armed for the soak");
  if (const auto code = bench::parseSuiteArgs(parser, args)) return *code;
  config.seed = common.seedOr(config.seed);
  const std::string jsonPath = common.jsonOr("BENCH_chaos.json");
  MCX_REQUIRE(config.seconds > 0, "--seconds must be positive");
  MCX_REQUIRE(config.clients > 0, "--clients must be positive");

  const proc::MemoryUsage rssStart = proc::memoryUsage();
  CircuitCache::global().clear();
  CircuitCache::global().setByteBudget(config.cacheBudgetKb * 1024);
  const CircuitCache::Stats cacheStart = CircuitCache::global().stats();
  faultinject::reset();
  faultinject::seed(config.seed);
  faultinject::armFromSpec(config.faults);

  ServiceOptions options;
  options.queueDepth = 16;
  options.requestThreads = 2;
  options.poolThreads = 2;
  options.limits.maxLineBytes = 4096;  // the oversized draws must trip it
  options.queueCostBudget = 200000;
  options.clientCostRate = 100000;
  options.clientCostBurst = 200000;
  options.degradeSamples = true;
  options.watchdogFactor = 4;

  std::cout << "chaos-soak: " << config.clients << " clients for " << config.seconds
            << "s, faults \"" << config.faults << "\" (seed " << config.seed
            << "), cache budget " << config.cacheBudgetKb << " KiB\n\n";

  // The default sink is serialized by the service's emission lock, so these
  // tallies need no atomics of their own.
  std::uint64_t responses = 0;
  std::uint64_t degradedSeen = 0;
  ServiceCounters counters;
  {
    ExperimentService service(options, [&](const std::string& line) {
      ++responses;
      if (line.find("\"degraded\": true") != std::string::npos) ++degradedSeen;
    });

    std::atomic<std::uint64_t> submitted{0};
    std::vector<std::thread> clients;
    clients.reserve(config.clients);
    for (std::size_t i = 0; i < config.clients; ++i) {
      clients.emplace_back([&, i] {
        Rng rng(config.seed ^ (0x9e3779b97f4a7c15ull * (i + 1)));
        const std::string client = "client-" + std::to_string(i);
        const Stopwatch wall;
        std::uint64_t serial = 0;
        while (wall.seconds() < config.seconds) {
          service.submit(drawLine(rng, i, serial++), nullptr, client);
          submitted.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::sleep_for(std::chrono::milliseconds(rng.uniformInt(0, 3)));
        }
      });
    }
    for (std::thread& t : clients) t.join();
    service.drain();
    counters = service.counters();

    // Conservation: every submitted line came back exactly once, and the
    // taxonomy partitions `received` (probes and admission rejections on one
    // side, every accepted request retired on the other).
    const std::uint64_t tallied = counters.parseErrors + counters.internalErrors +
                                  counters.shedOverloaded + counters.statsRequests +
                                  counters.healthRequests + counters.completedOk +
                                  counters.deadlineExceeded + counters.cancelled;
    int failures = 0;
    if (counters.received != submitted.load() || responses != submitted.load()) {
      std::cerr << "chaos_soak: response conservation broken: submitted "
                << submitted.load() << ", received " << counters.received
                << ", responses " << responses << "\n";
      ++failures;
    }
    if (tallied != counters.received) {
      std::cerr << "chaos_soak: taxonomy does not sum to received: " << tallied
                << " != " << counters.received << "\n";
      ++failures;
    }

    const CircuitCache::Stats cacheEnd = CircuitCache::global().stats();
    const std::uint64_t evictions = cacheEnd.evictions - cacheStart.evictions;
    const std::size_t cacheBytes = CircuitCache::global().currentBytes();
    if (evictions == 0) {
      std::cerr << "chaos_soak: the bounded cache never evicted (budget too big "
                   "for the working set?)\n";
      ++failures;
    }
    if (cacheBytes > config.cacheBudgetKb * 1024) {
      std::cerr << "chaos_soak: cache over budget after drain: " << cacheBytes
                << " bytes\n";
      ++failures;
    }

    std::uint64_t firedTotal = 0;
    for (const char* site : {"circuit.synthesize", "mc.sample", "serve.enqueue", "approx.evaluate"})
      firedTotal += faultinject::fired(site);
    if (firedTotal == 0) {
      std::cerr << "chaos_soak: no injected fault ever fired — the storm was a "
                   "no-op\n";
      ++failures;
    }

    const proc::MemoryUsage rssEnd = proc::memoryUsage();
    const std::size_t rssCap =
        rssStart.rssBytes + config.maxRssGrowthMb * (std::size_t{1} << 20);
    if (rssEnd.peakRssBytes != 0 && rssEnd.peakRssBytes > rssCap) {
      std::cerr << "chaos_soak: peak RSS " << rssEnd.peakRssBytes << " exceeds start + "
                << config.maxRssGrowthMb << " MB slack\n";
      ++failures;
    }

    std::ostringstream jsonBuffer;
    JsonWriter json(jsonBuffer);
    json.beginObject();
    json.field("bench", "chaos_soak");
    json.field("seconds", config.seconds);
    json.field("clients", config.clients);
    json.field("seed", config.seed);
    json.field("faults", config.faults);
    json.field("cache_budget_bytes", config.cacheBudgetKb * 1024);
    json.field("submitted", submitted.load());
    json.field("received", counters.received);
    json.field("responses", responses);
    json.field("completed_ok", counters.completedOk);
    json.field("parse_errors", counters.parseErrors);
    json.field("oversized_lines", counters.oversizedLines);
    json.field("shed_overloaded", counters.shedOverloaded);
    json.field("client_shed", counters.clientShed);
    json.field("cost_shed", counters.costShed);
    json.field("batch_shed", counters.batchShed);
    json.field("aged_out", counters.agedOut);
    json.field("deadline_exceeded", counters.deadlineExceeded);
    json.field("cancelled", counters.cancelled);
    json.field("internal_errors", counters.internalErrors);
    json.field("stats_requests", counters.statsRequests);
    json.field("health_requests", counters.healthRequests);
    json.field("degraded_responses", counters.degradedResponses);
    json.field("watchdog_flags", counters.watchdogFlags);
    json.field("cache_evictions", evictions);
    json.field("cache_evicted_bytes", cacheEnd.evictedBytes - cacheStart.evictedBytes);
    json.field("cache_bytes_after_drain", cacheBytes);
    json.field("fired_synthesize", faultinject::fired("circuit.synthesize"));
    json.field("fired_mc_sample", faultinject::fired("mc.sample"));
    json.field("fired_enqueue", faultinject::fired("serve.enqueue"));
    json.field("fired_approx_evaluate", faultinject::fired("approx.evaluate"));
    json.field("rss_start_bytes", rssStart.rssBytes);
    json.field("rss_peak_bytes", rssEnd.peakRssBytes);
    json.endObject();
    std::ofstream jsonFile(jsonPath);
    jsonFile << jsonBuffer.str() << "\n";
    jsonFile.flush();
    if (!jsonFile) {
      std::cerr << "chaos_soak: cannot write " << jsonPath << "\n";
      return 2;
    }

    TextTable table({"submitted", "ok", "parse", "shed", "ddl", "internal", "degraded",
                     "evict", "fired"});
    table.addRow({std::to_string(submitted.load()), std::to_string(counters.completedOk),
                  std::to_string(counters.parseErrors),
                  std::to_string(counters.shedOverloaded),
                  std::to_string(counters.deadlineExceeded),
                  std::to_string(counters.internalErrors),
                  std::to_string(counters.degradedResponses), std::to_string(evictions),
                  std::to_string(firedTotal)});
    std::cout << table << "\nJSON written to " << jsonPath << "\n";
    if (degradedSeen != counters.degradedResponses) {
      std::cerr << "chaos_soak: degraded label/counter mismatch: saw " << degradedSeen
                << " labeled responses, counter says " << counters.degradedResponses
                << "\n";
      ++failures;
    }

    faultinject::reset();
    CircuitCache::global().setByteBudget(0);
    if (failures != 0) return 1;
  }
  return 0;
}

}  // namespace

MCX_BENCH_SUITE("chaos-soak",
                "seeded randomized fault soak of the experiment service "
                "(conservation, bounded cache/RSS, clean drain; BENCH_chaos)",
                runChaosSoak);
