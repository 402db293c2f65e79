#include "api/driver.hpp"

#include <algorithm>
#include <fstream>
#include <iostream>

#include "circuit/registry.hpp"
#include "map/registry.hpp"
#include "scenario/registry.hpp"
#include "util/error.hpp"

namespace mcx::bench {

void CommonOptions::addTo(cli::ArgParser& parser) {
  addSamplesTo(parser);
  addSeedTo(parser);
  addThreadsTo(parser);
  addJsonTo(parser);
}

void CommonOptions::addSamplesTo(cli::ArgParser& parser) {
  parser.add("--samples", &samples, "N", "Monte Carlo samples per cell");
}

void CommonOptions::addSeedTo(cli::ArgParser& parser) {
  parser.add("--seed", &seed, "S", "root RNG seed");
}

void CommonOptions::addThreadsTo(cli::ArgParser& parser) {
  parser.add("--threads", &threads, "N", "worker threads (0 = hardware concurrency)");
}

void CommonOptions::addJsonTo(cli::ArgParser& parser) {
  parser.add("--json", &json, "PATH", "machine-readable output path");
}

std::size_t CommonOptions::samplesOr(std::size_t fallback) const {
  return samples.value_or(fallback);
}

std::uint64_t CommonOptions::seedOr(std::uint64_t fallback) const {
  return seed.value_or(fallback);
}

std::size_t CommonOptions::threadsOr(std::size_t fallback) const {
  return threads.value_or(fallback);
}

std::string CommonOptions::jsonOr(const std::string& fallback) const {
  return json.value_or(fallback);
}

Driver& Driver::global() {
  static Driver driver;
  return driver;
}

void Driver::add(Suite suite) {
  MCX_REQUIRE(!suite.name.empty() && suite.run != nullptr,
              "bench suite needs a name and a run function");
  MCX_REQUIRE(find(suite.name) == nullptr, "duplicate bench suite " + suite.name);
  suites_.push_back(std::move(suite));
  std::sort(suites_.begin(), suites_.end(),
            [](const Suite& a, const Suite& b) { return a.name < b.name; });
}

const Suite* Driver::find(const std::string& name) const {
  for (const Suite& suite : suites_)
    if (suite.name == name) return &suite;
  return nullptr;
}

void Driver::listSuites(std::ostream& out) const {
  for (const Suite& suite : suites_) out << suite.name << "  —  " << suite.summary << "\n";
}

void listMappers(std::ostream& out) {
  for (const MapperPreset& preset : mapperPresets())
    out << preset.name << "  —  " << preset.summary << "\n";
}

void listScenarios(std::ostream& out) {
  for (const ScenarioPreset& preset : scenarioPresets())
    out << preset.name << "  —  " << preset.summary << "\n";
}

void listCircuits(std::ostream& out) {
  for (const CircuitPreset& preset : circuitPresets())
    out << preset.name << "  —  " << preset.summary << "\n";
}

void Driver::printUsage(std::ostream& out) const {
  out << "usage: mcx_bench <suite> [suite flags]\n"
         "       mcx_bench --list-suites | --list-mappers | --list-scenarios |\n"
         "                 --list-circuits\n"
         "\n"
         "One multiplexed driver for every bench of the repo. Pick a suite and\n"
         "pass `--help` after its name for the suite's own flags.\n"
         "\n"
         "suites:\n";
  listSuites(out);
}

int Driver::run(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err) const {
  if (args.empty()) {
    printUsage(err);
    return 2;
  }
  const std::string& first = args[0];
  if (first == "--help" || first == "-h") {
    printUsage(out);
    return 0;
  }
  if (first == "--list-suites") {
    listSuites(out);
    return 0;
  }
  if (first == "--list-mappers") {
    listMappers(out);
    return 0;
  }
  if (first == "--list-scenarios") {
    listScenarios(out);
    return 0;
  }
  if (first == "--list-circuits") {
    listCircuits(out);
    return 0;
  }
  if (first.starts_with("-")) {
    err << "mcx_bench: unknown flag " << first << " (try --help)\n";
    return 2;
  }
  const Suite* suite = find(first);
  if (suite == nullptr) {
    err << "mcx_bench: unknown suite \"" << first << "\"; available suites:\n";
    listSuites(err);
    return 2;
  }
  try {
    return suite->run(std::vector<std::string>(args.begin() + 1, args.end()));
  } catch (const std::exception& e) {  // unknown circuit, failed compile, unwritable JSON, ...
    err << "mcx_bench " << suite->name << ": " << e.what() << "\n";
    return 2;
  }
}

int Driver::run(int argc, char** argv, std::ostream& out, std::ostream& err) const {
  std::vector<std::string> args;
  args.reserve(argc > 0 ? static_cast<std::size_t>(argc - 1) : 0);
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  return run(args, out, err);
}

std::optional<int> parseSuiteArgs(cli::ArgParser& parser,
                                  const std::vector<std::string>& args) {
  switch (parser.parse(args, std::cout, std::cerr)) {
    case cli::ArgParser::Outcome::Handled: return 0;
    case cli::ArgParser::Outcome::Error: return 2;
    case cli::ArgParser::Outcome::Ok: break;
  }
  return std::nullopt;
}

void writeJsonFile(const std::string& path, const std::string& text) {
  std::ofstream file(path);
  file << text << "\n";
  file.flush();
  if (!file) throw Error("cannot write '" + path + "'");
}

SuiteRegistrar::SuiteRegistrar(std::string name, std::string summary,
                               std::function<int(const std::vector<std::string>&)> run) {
  Driver::global().add({std::move(name), std::move(summary), std::move(run)});
}

}  // namespace mcx::bench
