// The benchmark's three workloads and the report they produce.
//
//   mc-multilevel      closed loop of ExperimentBuilder::run() on a shared
//                      min(4, nproc)-lane pool, multi-level circuits
//   mc-twolevel-mixed  closed loop of run() on one lane: HK-bound, dense
//                      sampler, clustered and approx cells
//   serve-open-loop    a real mcx_serve daemon under seeded Poisson arrivals,
//                      then a closed-loop capacity phase (not in
//                      BENCHMARK.json: its wall-clock latencies are too
//                      noisy on a shared host)
//
// An untraced run measures the end-to-end metrics, on the mc workloads in
// lane-seconds (process CPU time over the lane count); a traced run replays the
// workload's experiments stage by stage through the library's public calls
// (scenario -> xbar -> map/assign/approx -> mc -> api, circuit -> serve)
// and reports per-layer self times and counts. Both check every result with
// the benchmark's own oracle.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string serveBinary;  ///< mcx_serve executable
  std::string workDir;      ///< sockets, daemon logs and trace files
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;     ///< the machine-readable result
  std::vector<std::string> notes;  ///< human-readable detail lines

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// A correctness violation not tied to one operation: the run is wrong.
  void violation(const std::string& what) {
    correct = false;
    notes.push_back("VIOLATION: " + what);
  }
};

/// Run one workload; throws std::invalid_argument for an unknown name.
Report runWorkload(const Options& options);

}  // namespace perfbench
