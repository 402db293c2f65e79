// mcx_perf — the repository benchmark's measuring program.
//
//   mcx_perf --workload mc-multilevel --seed 1 --seconds 12 --trace 0
//            --serve-bin <path to mcx_serve> --work-dir <scratch dir>
//
// Prints a human-readable report, then as its last line one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits 1 when any correctness check failed, 2 on bad arguments.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "util/arg_parser.hpp"
#include "workloads.hpp"

namespace {

std::string cpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "0";  // JSON has no NaN; the run is marked incorrect
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", v);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::size_t trace = 0;
  mcx::cli::ArgParser parser("mcx_perf", "Run one workload of the repository benchmark.");
  parser.add("--workload", &options.workload, "NAME",
             "mc-multilevel | mc-twolevel-mixed | serve-open-loop");
  parser.add("--seed", &options.seed, "N", "workload seed (inputs are generated from it)");
  parser.add("--seconds", &options.seconds, "S", "length of the timed phase");
  parser.add("--trace", &trace, "0|1", "1 = traced run reporting the per-layer metrics");
  parser.add("--serve-bin", &options.serveBinary, "PATH", "the mcx_serve executable");
  parser.add("--work-dir", &options.workDir, "DIR", "directory for sockets, logs and traces");
  switch (parser.parse(argc, argv, std::cout, std::cerr)) {
    case mcx::cli::ArgParser::Outcome::Ok: break;
    case mcx::cli::ArgParser::Outcome::Handled: return 0;
    case mcx::cli::ArgParser::Outcome::Error: return 2;
  }
  options.trace = trace != 0;
  if (options.workDir.empty() || options.serveBinary.empty() || options.seconds <= 0) {
    std::cerr << "mcx_perf: --work-dir, --serve-bin and a positive --seconds are required\n";
    return 2;
  }

  perfbench::Report report;
  try {
    report = perfbench::runWorkload(options);
  } catch (const std::exception& e) {
    std::cerr << "mcx_perf: " << e.what() << "\n";
    return 2;
  }

  std::cout << "host: nproc " << std::thread::hardware_concurrency() << ", cpu " << cpuModel()
            << ", build " << PERFBENCH_BUILD_TYPE << ", MCX_NATIVE " << PERFBENCH_NATIVE << "\n";
  for (const std::string& note : report.notes) std::cout << note << "\n";
  const double failedFraction =
      report.attempted == 0 ? 0.0
                            : static_cast<double>(report.failed) / static_cast<double>(report.attempted);
  std::cout << "failed_fraction " << jsonNumber(failedFraction) << " ratio (" << report.failed
            << " of " << report.attempted << " operations)\n";
  for (const perfbench::Metric& m : report.metrics)
    std::cout << m.name << " " << jsonNumber(m.value) << " " << m.unit << "\n";

  bool finite = true;
  for (const perfbench::Metric& m : report.metrics) finite = finite && std::isfinite(m.value);
  if (!finite) std::cout << "VIOLATION: a metric is not a finite number\n";
  const bool correct = report.correct && report.failed == 0 && finite;
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
       << std::max<std::uint64_t>(report.attempted, 1) << ", \"failed\": " << report.failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    json << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << jsonNumber(m.value)
         << ", \"unit\": \"" << m.unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return correct ? 0 : 1;
}
