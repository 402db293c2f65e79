// bench::Driver — the one multiplexed bench front end.
//
// Every reproduction/ablation bench used to be its own binary with its own
// copy-pasted argv loop; now each is a Suite registered with the global
// driver (MCX_BENCH_SUITE in its source file) and dispatched as
// `mcx_bench <suite> [flags]`. The driver itself handles discovery
// (--list-suites, --list-mappers, --list-scenarios, --list-circuits,
// --help); everything
// after the suite name goes to the suite, which parses it with the shared
// cli::ArgParser (CommonOptions covers the knobs every suite shares).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "util/arg_parser.hpp"

namespace mcx::bench {

struct Suite {
  std::string name;     ///< the `mcx_bench <name>` key
  std::string summary;  ///< one line for --list-suites
  /// Runs the suite on the args after the suite name; returns the process
  /// exit code (0 = pass, 1 = self-check failure, 2 = usage error).
  std::function<int(const std::vector<std::string>& args)> run;
};

/// Flags shared by (almost) every suite: registered into the suite's
/// ArgParser with addTo(), resolved with the *Or accessors. samplesOr and
/// jsonOr honor the historical env knobs (flag beats MCX_SAMPLES /
/// MCX_BENCH_JSON beats the suite's default); seedOr/threadsOr have no env
/// counterpart — flag or fallback.
struct CommonOptions {
  std::optional<std::size_t> samples;
  std::optional<std::uint64_t> seed;
  std::optional<std::size_t> threads;
  std::optional<std::string> json;

  void addTo(cli::ArgParser& parser);  ///< all four flags
  // Granular registration for suites that only expose some of the knobs.
  void addSamplesTo(cli::ArgParser& parser);
  void addSeedTo(cli::ArgParser& parser);
  void addThreadsTo(cli::ArgParser& parser);
  void addJsonTo(cli::ArgParser& parser);
  std::size_t samplesOr(std::size_t fallback) const;      ///< --samples, MCX_SAMPLES, fallback
  std::uint64_t seedOr(std::uint64_t fallback) const;     ///< --seed, fallback
  std::size_t threadsOr(std::size_t fallback = 0) const;  ///< --threads, fallback (0 = hw)
  std::string jsonOr(const std::string& fallback) const;  ///< --json, MCX_BENCH_JSON, fallback
};

class Driver {
public:
  /// The process-wide driver all MCX_BENCH_SUITE registrations target.
  static Driver& global();

  /// Register a suite; throws mcx::InvalidArgument on a duplicate name.
  void add(Suite suite);

  const std::vector<Suite>& suites() const { return suites_; }
  const Suite* find(const std::string& name) const;

  /// Dispatch `mcx_bench` argv (args excludes the program name): the
  /// listing/help flags, then the named suite. Listings and help go to
  /// @p out, usage errors to @p err. A std::exception escaping the suite is
  /// reported to @p err as "mcx_bench <suite>: <what>" with exit code 2.
  /// Returns the process exit code.
  int run(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) const;
  int run(int argc, char** argv, std::ostream& out, std::ostream& err) const;

  void printUsage(std::ostream& out) const;
  void listSuites(std::ostream& out) const;

private:
  std::vector<Suite> suites_;
};

/// One-liner self-registration into Driver::global() (file-scope static in
/// each suite's translation unit).
struct SuiteRegistrar {
  SuiteRegistrar(std::string name, std::string summary,
                 std::function<int(const std::vector<std::string>&)> run);
};

/// Print "name  —  summary" lines for every registered mapper / scenario /
/// circuit preset (the --list-mappers / --list-scenarios / --list-circuits
/// payloads; also used by the suites' own --list flags).
void listMappers(std::ostream& out);
void listScenarios(std::ostream& out);
void listCircuits(std::ostream& out);

/// Shared suite prologue: parse @p args (help/listing flags to std::cout,
/// usage errors to std::cerr). Returns the exit code to propagate — 0 after
/// --help or an action flag, 2 on a usage error — or nullopt to continue
/// into the suite body.
std::optional<int> parseSuiteArgs(cli::ArgParser& parser, const std::vector<std::string>& args);

/// Write a suite's finished JSON document @p text (plus a trailing newline)
/// to @p path. Throws mcx::Error("cannot write '<path>'") when the file
/// cannot be written, an empty path included; the driver reports it and
/// exits 2. Suites buffer the document and call this after the last cell,
/// so a failed run leaves an existing file untouched.
void writeJsonFile(const std::string& path, const std::string& text);

}  // namespace mcx::bench

/// Register a suite: MCX_BENCH_SUITE("table2", "Table II reproduction",
/// runTable2) with `int runTable2(const std::vector<std::string>& args)` in
/// scope expands to a file-scope static registrar. The first argument is the
/// `mcx_bench <name>` key, spelled out as a string (dashes allowed); the
/// function name only names the registrar variable.
#define MCX_BENCH_SUITE(name, summary, fn) \
  static const ::mcx::bench::SuiteRegistrar mcxBenchSuiteRegistrar_##fn{name, summary, fn}
