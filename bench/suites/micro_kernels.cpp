// Microbenchmarks (google-benchmark) of the library's hot kernels:
// row matching, matching-matrix construction, Munkres, tautology checking,
// complement, ISOP, espresso, factoring, end-to-end HBA/EA mapping (alu4
// and the bw deck, on a reused context), and the
// three layers of the Monte Carlo hot path (legacy vs sparse sampling, the
// candidate adjacency, Hopcroft-Karp) on the bw
// multi-level workload at the paper's 10% stuck-open rate (the legacy
// sweep also on sao2's two-level shape at 15%; the adjacency and
// Hopcroft-Karp also on alu4 at 15%), the approx
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

const FunctionMatrix& sao2FunctionMatrix() {
  static const std::shared_ptr<const Circuit> sao2 = compileCircuit("sao2");
  return sao2->fm;
}

// The legacy dense sweep on the bw multi-level shape (289x299) at the
// paper's 10% stuck-open, and on sao2's two-level shape (62x28) at 15%, the
// mc-twolevel-mixed workload's legacy cell.
void BM_SamplerLegacy(benchmark::State& state, const FunctionMatrix& (*circuit)(),
                      double open) {
  const FunctionMatrix& fm = circuit();
  const IidBernoulli model(open, 0.0);
  Rng rng(6);
  DefectMap map;
  for (auto _ : state) {
    model.generate(fm.rows(), fm.cols(), rng, map);
    benchmark::DoNotOptimize(map);
  }
}
BENCHMARK_CAPTURE(BM_SamplerLegacy, bw, &bwFunctionMatrix, 0.10);
BENCHMARK_CAPTURE(BM_SamplerLegacy, sao2, &sao2FunctionMatrix, 0.15);

const FunctionMatrix& alu4FunctionMatrix() {
  static const std::shared_ptr<const Circuit> alu4 = compileCircuit("alu4");
  return alu4->fm;
}

// A deck of 64 consecutive samples of one circuit (seed 6) shared by the
// sampler, adjacency and matching rows. Each iteration takes the next card,
// so a row reads the mean per-sample cost: a single sample misleads, e.g.
// bw's first one has a perfect greedy seed and skips HK's phases entirely.
struct Deck {
  static constexpr std::size_t kSize = 64;
  const FunctionMatrix* fm = nullptr;
  std::vector<Rng> streams;  ///< generator state before each sample
  std::vector<BitMatrix> cm, adjacency;
};

Deck drawDeck(const FunctionMatrix& fm, const DefectModel& model) {
  Deck d;
  d.fm = &fm;
  Rng rng(6);
  for (std::size_t i = 0; i < Deck::kSize; ++i) {
    d.streams.push_back(rng);
    d.cm.push_back(crossbarMatrix(model.sample(fm.rows(), fm.cols(), rng)));
    d.adjacency.push_back(buildCandidateAdjacency(fm.bits(), d.cm.back()));
  }
  return d;
}

// bw multi-level at 10% stuck-open on the sparse sampler.
const Deck& bwDeck() {
  static const Deck deck = drawDeck(bwFunctionMatrix(), SparseIidBernoulli(0.10, 0.0));
  return deck;
}

// alu4 two-level at 15% paper-iid, the mc-twolevel-mixed workload's alu4
// cell: a 583x44 FM, so 10-word adjacency rows.
const Deck& alu4Deck() {
  static const Deck deck = drawDeck(alu4FunctionMatrix(), *makeScenario("paper-iid", 0.15));
  return deck;
}

// sao2 two-level at 15% on the legacy sampler, the mc-twolevel-mixed
// workload's legacy cell.
const Deck& sao2Deck() {
  static const Deck deck = drawDeck(sao2FunctionMatrix(), IidBernoulli(0.15, 0.0));
  return deck;
}

// The legacy dense sweep through generateBlock at the model's block width,
// starting each block's samples at the next cards' streams. A row reads the
// per-sample cost in its `sample` counter (the time column is per block).
void BM_SamplerLegacyBlock(benchmark::State& state, const Deck& (*drawn)(), double open) {
  const Deck& deck = drawn();
  const IidBernoulli model(open, 0.0);
  const std::size_t width = model.blockWidth();
  std::vector<Rng> rngs(width);
  std::vector<DefectMap> maps(width);
  std::size_t i = 0;
  for (auto _ : state) {
    for (std::size_t j = 0; j < width; ++j) rngs[j] = deck.streams[(i + j) % Deck::kSize];
    model.generateBlock(deck.fm->rows(), deck.fm->cols(), rngs.data(), maps.data(), width);
    benchmark::DoNotOptimize(maps.data());
    benchmark::ClobberMemory();
    i = (i + width) % Deck::kSize;
  }
  state.counters["sample"] = benchmark::Counter(
      static_cast<double>(width),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_SamplerLegacyBlock, bw, &bwDeck, 0.10);
BENCHMARK_CAPTURE(BM_SamplerLegacyBlock, sao2, &sao2Deck, 0.15);

void BM_SamplerSparse(benchmark::State& state) {
  const FunctionMatrix& fm = bwFunctionMatrix();
  const Deck& deck = bwDeck();
  const SparseIidBernoulli model(0.10, 0.0);
  DefectMap map;
  std::size_t i = 0;
  for (auto _ : state) {
    Rng rng = deck.streams[i++ % Deck::kSize];
    model.generate(fm.rows(), fm.cols(), rng, map);
    benchmark::DoNotOptimize(map);
  }
}
BENCHMARK(BM_SamplerSparse);

// The adjacency kernel's first half alone: the next card's CM transposed
// into one reused buffer.
void BM_Transpose(benchmark::State& state) {
  const Deck& deck = bwDeck();
  BitMatrix cmT;
  std::size_t i = 0;
  for (auto _ : state) {
    cmT.assignTransposed(deck.cm[i++ % Deck::kSize]);
    benchmark::DoNotOptimize(cmT);
  }
}
BENCHMARK(BM_Transpose);

// The engine's path: one reused context per worker, the next card's CM each
// iteration.
void BM_Adjacency(benchmark::State& state, const Deck& (*drawn)()) {
  const Deck& deck = drawn();
  MappingContext ctx;
  std::size_t i = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(ctx.candidateAdjacency(deck.fm->bits(), deck.cm[i++ % Deck::kSize]));
}
BENCHMARK_CAPTURE(BM_Adjacency, bw, &bwDeck);
BENCHMARK_CAPTURE(BM_Adjacency, alu4, &alu4Deck);

void BM_HopcroftKarp(benchmark::State& state, const Deck& (*drawn)()) {
  const Deck& deck = drawn();
  std::size_t i = 0;
  for (auto _ : state) benchmark::DoNotOptimize(hopcroftKarp(deck.adjacency[i++ % Deck::kSize]));
}
BENCHMARK_CAPTURE(BM_HopcroftKarp, bw, &bwDeck);
BENCHMARK_CAPTURE(BM_HopcroftKarp, alu4, &alu4Deck);

// End-to-end mapping (adjacency build included) on one reused context, as
// an engine worker runs it: one fixed alu4 sample (legacy sampler, 10%
// stuck-open), and the bw deck's next card each iteration.
void mapAlu4Sample(benchmark::State& state, const IMapper& mapper) {
  const FunctionMatrix& fm = alu4FunctionMatrix();
  Rng rng(5);
  const DefectMap defects = IidBernoulli(0.1).sample(fm.rows(), fm.cols(), rng);
  const BitMatrix cm = crossbarMatrix(defects);
  MappingContext ctx;
  for (auto _ : state) benchmark::DoNotOptimize(mapper.map(fm, cm, ctx));
}

void mapBwDeck(benchmark::State& state, const IMapper& mapper) {
  const Deck& deck = bwDeck();
  MappingContext ctx;
  std::size_t i = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(mapper.map(*deck.fm, deck.cm[i++ % Deck::kSize], ctx));
}

void BM_MapHba(benchmark::State& state) { mapAlu4Sample(state, HybridMapper()); }
BENCHMARK(BM_MapHba);

void BM_MapEa(benchmark::State& state) { mapAlu4Sample(state, ExactMapper()); }
BENCHMARK(BM_MapEa);

void BM_MapHbaBw(benchmark::State& state) { mapBwDeck(state, HybridMapper()); }
BENCHMARK(BM_MapHbaBw);

void BM_MapEaBw(benchmark::State& state) { mapBwDeck(state, ExactMapper()); }
BENCHMARK(BM_MapEaBw);

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

// The cold compiles behind a workload's setup: rd53-min and nn-small run
// espresso, alu4 is the 575-product irredundant randomSop stand-in.
void BM_CircuitCompileCacheMiss(benchmark::State& state, const char* circuit) {
  const CircuitSpec spec = makeCircuitSpec(circuit);
  for (auto _ : state)
    benchmark::DoNotOptimize(compileCircuit(spec, /*useCache=*/false));
}
BENCHMARK_CAPTURE(BM_CircuitCompileCacheMiss, rd53-min, "rd53-min");
BENCHMARK_CAPTURE(BM_CircuitCompileCacheMiss, nn-small, "nn-small");
BENCHMARK_CAPTURE(BM_CircuitCompileCacheMiss, alu4, "alu4");

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
