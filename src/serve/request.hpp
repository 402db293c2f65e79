// Service request/response schema: one JSON line in, one JSON line out.
//
// A request is a complete experiment declaration — the JSON-lines twin of
// an ExperimentBuilder chain — validated EAGERLY at parse time through the
// same registries the builder uses, so an unknown circuit, a typo'd mapper
// option or an out-of-range knob is rejected before anything is queued:
//
//   {"id": "r1", "circuit": "rd53", "mapper": "hba",
//    "scenario": "clustered", "rate": 0.08,
//    "samples": 200, "seed": 42, "deadline_ms": 500}
//
// Members:
//   id           string or number, echoed verbatim in the response
//                (optional; the service numbers unnamed requests)
//   circuit      preset / prefixed source string, or an inline circuit
//                spec object (required)
//   mapper       preset name or mapper spec object (default "hba")
//   scenario     preset name or model spec object; absent = the legacy
//                IidBernoulli at `open`/`closed` (builder legacyRates)
//   rate         preset scenario rate in [0, 1] (default 0.10)
//   open/closed  legacy rate pair in [0, 1], open + closed <= 1 (scenario
//                absent only)
//   samples      Monte Carlo samples, 1..maxSamples (default 200)
//   seed         RNG root seed, an exact integer (default 1)
//   spare_rows   redundancy rows, 0..1024 (default 0)
//   multilevel   override the circuit spec's realization (optional bool)
//   deadline_ms  per-request time budget, measured from ADMISSION —
//                queueing and synthesis count (optional; service default)
//   cache        compile through the memo cache (default true)
//   lane         "interactive" (default) or "batch" — batch requests are
//                the first shed when the service enters overload mode
//   epsilon      graded acceptance budget in [0, 1] (optional): samples
//                within the realized-error budget count toward functional
//                yield(ε) and the response gains the graded fields
//                (epsilon_accepted, functional_yield, rescued,
//                mean_realized_error); absent = classical pass/fail output
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "circuit/spec.hpp"
#include "map/matching.hpp"
#include "scenario/defect_model.hpp"

namespace mcx::serve {

/// Parse-time bounds (the service's self-protection knobs).
struct RequestLimits {
  std::size_t maxSamples = 1000000;
  std::size_t maxSpareRows = 1024;
  std::size_t maxLineBytes = 1 << 20;  ///< reject megabyte "lines" up front
};

struct Request {
  /// Scheduling lane: batch work is shed first under overload, so the
  /// interactive lane keeps its latency while the service degrades.
  enum class Lane { Interactive, Batch };

  std::string id;
  CircuitSpec circuit;
  std::shared_ptr<const IMapper> mapper;
  /// Null = the legacy IidBernoulli at open/closed below (validated at
  /// parse; the builder's legacyRates constructs it).
  std::shared_ptr<const DefectModel> scenario;
  std::string scenarioLabel;  ///< for the response ("iid (legacy rates)" when null)
  double legacyOpen = 0.10;
  double legacyClosed = 0.0;
  std::size_t samples = 200;
  std::uint64_t seed = 1;
  std::size_t spareRows = 0;
  std::optional<bool> multiLevel;
  std::optional<double> deadlineMillis;
  /// Graded acceptance budget; absent = classical pass/fail response shape.
  std::optional<double> epsilon;
  bool useCache = true;
  Lane lane = Lane::Interactive;
};

/// Parse and validate one request line with the shared declaration reader
/// (scenario/spec.hpp). Throws ServeError(ErrorCode::Parse) on malformed
/// JSON, unknown members, unresolvable registry names, or out-of-range
/// values — never anything else, never with a source location in the
/// message, and never crashes or hangs on adversarial input (fuzz-tested;
/// the JSON parser depth-caps nesting).
Request parseRequest(const std::string& line, const RequestLimits& limits);

/// Best-effort id extraction from a line that failed parseRequest, so even
/// a malformed request's error response can be correlated by the client.
std::string extractRequestId(const std::string& line);

}  // namespace mcx::serve
