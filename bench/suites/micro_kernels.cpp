// Microbenchmarks (google-benchmark) of the library's hot kernels:
// row matching, matching-matrix construction, Munkres, tautology checking,
// complement, ISOP, espresso, factoring, end-to-end HBA/EA mapping, and the
// three layers of the Monte Carlo hot path (legacy vs sparse sampling, the
// candidate adjacency, cold vs warm-started Hopcroft-Karp) on the bw
// multi-level workload at the paper's 10% stuck-open rate, the approx
// mapper's rescue of inner-mapper failures, plus the memoized synthesis
// front-end (full pipeline compile vs cache hit), and the telemetry layer's
// own overhead (counter adds, histogram records, disarmed vs histogram-fed
// spans).
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "api/driver.hpp"
#include "approx/approx_mapper.hpp"
#include "assign/hopcroft_karp.hpp"
#include "assign/munkres.hpp"
#include "circuit/cache.hpp"
#include "circuit/registry.hpp"
#include "logic/espresso.hpp"
#include "logic/generators.hpp"
#include "logic/isop.hpp"
#include "map/exact_mapper.hpp"
#include "map/fast_exact_mapper.hpp"
#include "map/hybrid_mapper.hpp"
#include "netlist/factor.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/defect_model.hpp"
#include "scenario/registry.hpp"
#include "xbar/defects.hpp"
#include "xbar/function_matrix.hpp"

namespace {

using namespace mcx;

Cover benchCover(std::size_t nin, std::size_t products) {
  Rng rng(1);
  RandomSopOptions opts;
  opts.nin = nin;
  opts.nout = 4;
  opts.products = products;
  opts.literalsPerProduct = nin / 2.0;
  return randomSop(opts, rng);
}

void BM_RowMatching(benchmark::State& state) {
  const Cover cover = benchCover(14, static_cast<std::size_t>(state.range(0)));
  const FunctionMatrix fm = buildFunctionMatrix(cover);
  Rng rng(2);
  const DefectMap defects = IidBernoulli(0.1).sample(fm.rows(), fm.cols(), rng);
  const BitMatrix cm = crossbarMatrix(defects);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rowMatches(fm.bits(), i % fm.rows(), cm, i % cm.rows()));
    ++i;
  }
}
BENCHMARK(BM_RowMatching)->Arg(64)->Arg(256);

void BM_MatchingMatrix(benchmark::State& state) {
  const Cover cover = benchCover(12, static_cast<std::size_t>(state.range(0)));
  const FunctionMatrix fm = buildFunctionMatrix(cover);
  Rng rng(3);
  const DefectMap defects = IidBernoulli(0.1).sample(fm.rows(), fm.cols(), rng);
  const BitMatrix cm = crossbarMatrix(defects);
  for (auto _ : state)
    benchmark::DoNotOptimize(buildMatchingMatrix(buildCandidateAdjacency(fm.bits(), cm)));
}
BENCHMARK(BM_MatchingMatrix)->Arg(64)->Arg(256);

void BM_Munkres(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  CostMatrix cost(n, n, 1);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      if (rng.bernoulli(0.8)) cost.at(r, c) = 0;
  for (auto _ : state) benchmark::DoNotOptimize(munkresSolve(cost));
}
BENCHMARK(BM_Munkres)->Arg(32)->Arg(128)->Arg(512);

void BM_Tautology(benchmark::State& state) {
  const Cover cover = benchCover(static_cast<std::size_t>(state.range(0)), 40);
  const auto cubes = cover.projection(0);
  for (auto _ : state) benchmark::DoNotOptimize(tautology(cubes, cover.nin()));
}
BENCHMARK(BM_Tautology)->Arg(8)->Arg(12)->Arg(16);

void BM_Complement(benchmark::State& state) {
  const Cover cover = benchCover(static_cast<std::size_t>(state.range(0)), 30);
  const auto cubes = cover.projection(0);
  for (auto _ : state) benchmark::DoNotOptimize(complementCubes(cubes, cover.nin()));
}
BENCHMARK(BM_Complement)->Arg(8)->Arg(12);

void BM_Isop(benchmark::State& state) {
  const TruthTable tt = weightFunction(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(isopCover(tt));
}
BENCHMARK(BM_Isop)->Arg(5)->Arg(8)->Arg(10);

void BM_Espresso(benchmark::State& state) {
  const TruthTable tt = weightFunction(static_cast<std::size_t>(state.range(0)));
  const Cover cover = isopCover(tt);
  for (auto _ : state) benchmark::DoNotOptimize(espressoMinimize(cover));
}
BENCHMARK(BM_Espresso)->Arg(5)->Arg(7);

void BM_Factor(benchmark::State& state) {
  const std::shared_ptr<const Circuit> t481 = compileCircuit("t481");
  const auto cubes = t481->cover.projection(0);
  for (auto _ : state) benchmark::DoNotOptimize(factorCover(cubes, t481->cover.nin()));
}
BENCHMARK(BM_Factor);

// --- Monte Carlo hot-path layers on the bw multi-level workload ------------

const FunctionMatrix& bwFunctionMatrix() {
  static const std::shared_ptr<const Circuit> bw =
      compileCircuit(R"({"circuit":"bw","realize":"multilevel"})");
  return bw->fm;
}

void BM_SamplerLegacy(benchmark::State& state) {
  const FunctionMatrix& fm = bwFunctionMatrix();
  const IidBernoulli model(0.10, 0.0);
  Rng rng(6);
  DefectMap map;
  for (auto _ : state) {
    model.generate(fm.rows(), fm.cols(), rng, map);
    benchmark::DoNotOptimize(map);
  }
}
BENCHMARK(BM_SamplerLegacy);

// A deck of 64 consecutive bw samples (seed 6) shared by the sampler,
// adjacency and matching rows. Each iteration takes the next card, so a row
// reads the mean per-sample cost: a single sample misleads, e.g. seed 6's
// first one has a perfect greedy seed and skips HK's phases entirely.
struct BwDeck {
  static constexpr std::size_t kSize = 64;
  std::vector<Rng> streams;  ///< generator state before each sample
  std::vector<BitMatrix> cm, adjacency;
};

const BwDeck& bwDeck() {
  static const BwDeck deck = [] {
    const FunctionMatrix& fm = bwFunctionMatrix();
    const SparseIidBernoulli model(0.10, 0.0);
    BwDeck d;
    Rng rng(6);
    for (std::size_t i = 0; i < BwDeck::kSize; ++i) {
      d.streams.push_back(rng);
      d.cm.push_back(crossbarMatrix(model.sample(fm.rows(), fm.cols(), rng)));
      d.adjacency.push_back(buildCandidateAdjacency(fm.bits(), d.cm.back()));
    }
    return d;
  }();
  return deck;
}

void BM_SamplerSparse(benchmark::State& state) {
  const FunctionMatrix& fm = bwFunctionMatrix();
  const BwDeck& deck = bwDeck();
  const SparseIidBernoulli model(0.10, 0.0);
  DefectMap map;
  std::size_t i = 0;
  for (auto _ : state) {
    Rng rng = deck.streams[i++ % BwDeck::kSize];
    model.generate(fm.rows(), fm.cols(), rng, map);
    benchmark::DoNotOptimize(map);
  }
}
BENCHMARK(BM_SamplerSparse);

// The engine's path: one reused context per worker, the next card's CM each
// iteration.
void BM_Adjacency(benchmark::State& state) {
  const FunctionMatrix& fm = bwFunctionMatrix();
  const BwDeck& deck = bwDeck();
  MappingContext ctx;
  std::size_t i = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(ctx.candidateAdjacency(fm.bits(), deck.cm[i++ % BwDeck::kSize]));
}
BENCHMARK(BM_Adjacency);

void BM_MatchingColdStart(benchmark::State& state) {
  const BwDeck& deck = bwDeck();
  std::size_t i = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        hopcroftKarp(deck.adjacency[i++ % BwDeck::kSize], /*warmStart=*/false));
}
BENCHMARK(BM_MatchingColdStart);

void BM_MatchingWarmStart(benchmark::State& state) {
  const BwDeck& deck = bwDeck();
  std::size_t i = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        hopcroftKarp(deck.adjacency[i++ % BwDeck::kSize], /*warmStart=*/true));
}
BENCHMARK(BM_MatchingWarmStart);

void BM_MapHba(benchmark::State& state) {
  const std::shared_ptr<const Circuit> alu4 = compileCircuit("alu4");
  const FunctionMatrix& fm = alu4->fm;
  Rng rng(5);
  const DefectMap defects = IidBernoulli(0.1).sample(fm.rows(), fm.cols(), rng);
  const BitMatrix cm = crossbarMatrix(defects);
  const HybridMapper mapper;
  for (auto _ : state) benchmark::DoNotOptimize(mapper.map(fm, cm));
}
BENCHMARK(BM_MapHba);

void BM_MapEa(benchmark::State& state) {
  const std::shared_ptr<const Circuit> alu4 = compileCircuit("alu4");
  const FunctionMatrix& fm = alu4->fm;
  Rng rng(5);
  const DefectMap defects = IidBernoulli(0.1).sample(fm.rows(), fm.cols(), rng);
  const BitMatrix cm = crossbarMatrix(defects);
  const ExactMapper mapper;
  for (auto _ : state) benchmark::DoNotOptimize(mapper.map(fm, cm));
}
BENCHMARK(BM_MapEa);

// --- Approx rescue of inner-mapper failures --------------------------------

// 64 rd53-min samples at 25% stuck-open (the approx workloads' cell, seed 8)
// on which the exact inner mapper fails, so every ApproxMapper::map call
// reads one inner failure plus one rescue: matching and realized error.
struct RescueDeck {
  std::shared_ptr<const Circuit> rd53;
  std::vector<BitMatrix> cm;
};

const RescueDeck& rescueDeck() {
  static const RescueDeck deck = [] {
    RescueDeck d{compileCircuit("rd53-min"), {}};
    const FunctionMatrix& fm = d.rd53->fm;
    const auto model = makeScenario("paper-iid", 0.25);
    const FastExactMapper inner;
    Rng rng(8);
    DefectMap defects;
    while (d.cm.size() < 64) {
      model->generate(fm.rows(), fm.cols(), rng, defects);
      BitMatrix cm = crossbarMatrix(defects);
      if (!inner.map(fm, cm).success) d.cm.push_back(std::move(cm));
    }
    return d;
  }();
  return deck;
}

void BM_ApproxRescue(benchmark::State& state) {
  const RescueDeck& deck = rescueDeck();
  const ApproxMapper mapper(ApproxMapperOptions{0.05});
  std::size_t i = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(mapper.map(deck.rd53->fm, deck.cm[i++ % deck.cm.size()]));
}
BENCHMARK(BM_ApproxRescue);

// --- Memoized synthesis front-end: full pipeline vs cache lookup -----------

void BM_CircuitCompileCacheMiss(benchmark::State& state) {
  const CircuitSpec spec = makeCircuitSpec("rd53-min");
  for (auto _ : state)
    benchmark::DoNotOptimize(compileCircuit(spec, /*useCache=*/false));
}
BENCHMARK(BM_CircuitCompileCacheMiss);

void BM_CircuitCompileCacheHit(benchmark::State& state) {
  const CircuitSpec spec = makeCircuitSpec("rd53-min");
  compileCircuit(spec);  // warm the global cache
  for (auto _ : state) benchmark::DoNotOptimize(compileCircuit(spec));
}
BENCHMARK(BM_CircuitCompileCacheHit);

// --- Telemetry overhead: counter increments, histogram records, spans -----

void BM_ObsCounterAdd(benchmark::State& state) {
  obs::Counter counter;
  for (auto _ : state) counter.add(1);
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_ObsCounterAdd);

void BM_ObsHistogramRecord(benchmark::State& state) {
  obs::Histogram hist;
  std::uint64_t v = 1;
  for (auto _ : state) {
    hist.record(v);
    v = v * 2862933555777941757ull + 3037000493ull;  // cheap LCG spread
  }
  benchmark::DoNotOptimize(hist.count());
}
BENCHMARK(BM_ObsHistogramRecord);

// The cost left in an instrumented hot path when nothing is armed: the
// constructor's relaxed load + branch, no clock reads.
void BM_ObsSpanDisarmed(benchmark::State& state) {
  obs::setProfiling(false);
  for (auto _ : state) {
    obs::Span span("bench_disarmed");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_ObsSpanDisarmed);

// A span feeding a histogram (no trace sink): two clock reads + a record.
void BM_ObsSpanHistogram(benchmark::State& state) {
  obs::Histogram hist;
  for (auto _ : state) {
    obs::Span span("bench_histogram", &hist);
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_ObsSpanHistogram);

// The profilingArmed() gate itself, as used by the HK hooks.
void BM_ObsProfilingGate(benchmark::State& state) {
  obs::setProfiling(false);
  for (auto _ : state) benchmark::DoNotOptimize(obs::profilingArmed());
}
BENCHMARK(BM_ObsProfilingGate);

// Google Benchmark owns this suite's flag grammar (--benchmark_filter,
// --benchmark_min_time, ...): args are forwarded verbatim instead of going
// through cli::ArgParser, and --help prints benchmark's own usage.
int runMicroKernels(const std::vector<std::string>& args) {
  std::vector<std::string> argvStore;
  argvStore.emplace_back("mcx_bench-micro");
  argvStore.insert(argvStore.end(), args.begin(), args.end());
  std::vector<char*> argv;
  argv.reserve(argvStore.size());
  for (std::string& arg : argvStore) argv.push_back(arg.data());
  int argc = static_cast<int>(argv.size());
  benchmark::Initialize(&argc, argv.data());
  if (benchmark::ReportUnrecognizedArguments(argc, argv.data())) return 2;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace

MCX_BENCH_SUITE("micro", "google-benchmark microkernels of the library's hot paths",
                runMicroKernels);
