#include "serve/request.hpp"

#include <cmath>
#include <sstream>
#include <tuple>

#include "circuit/registry.hpp"
#include "map/registry.hpp"
#include "obs/metrics.hpp"
#include "scenario/registry.hpp"
#include "scenario/spec.hpp"
#include "serve/error.hpp"

namespace mcx::serve {

namespace {

obs::Counter& oversizedLineCounter() {
  static obs::Counter& c = obs::Registry::global().counter("serve.oversized_lines");
  return c;
}

std::string idOf(const SpecValue& doc) {
  const SpecValue* v = doc.find("id");
  if (v == nullptr) return "";
  if (v->kind == SpecValue::Kind::String) return v->string;
  if (v->kind == SpecValue::Kind::Number) {
    // Echo integral ids the way the client wrote them.
    std::ostringstream out;
    if (v->number == std::floor(v->number) && std::abs(v->number) < 1e15)
      out << static_cast<long long>(v->number);
    else
      out << v->number;
    return out.str();
  }
  throw ParseError("member \"id\" must be a string or a number");
}

/// Reads every member through the shared reader (scenario/spec.hpp) and the
/// registries the builder uses; all of them throw ParseError.
Request readRequest(const SpecValue& doc, const RequestLimits& limits) {
  if (!doc.isObject()) throw ParseError("request must be a JSON object");
  requireOnlyKeys(doc, "request",
                  {"id", "circuit", "mapper", "scenario", "rate", "open", "closed", "samples",
                   "seed", "spare_rows", "multilevel", "deadline_ms", "cache", "lane",
                   "epsilon"});

  Request req;
  req.id = idOf(doc);

  const SpecValue* circuit = doc.find("circuit");
  if (circuit == nullptr) throw ParseError("member \"circuit\" is required");
  req.circuit = circuitSpecFromSpec(*circuit);
  const SpecValue* mapper = doc.find("mapper");
  req.mapper = mapper == nullptr ? makeMapper("hba") : mapperFromSpec(*mapper);

  const double rate = doc.numberOr("rate", 0.10, 0.0, 1.0);
  if (const SpecValue* scenario = doc.find("scenario")) {
    if (doc.find("open") != nullptr || doc.find("closed") != nullptr)
      throw ParseError("members \"open\"/\"closed\" require the legacy path (no \"scenario\")");
    req.scenario = modelFromSpec(*scenario, rate);
    req.scenarioLabel = req.scenario->describe();
  } else {
    req.scenario = nullptr;  // legacy rate-pair path
    std::tie(req.legacyOpen, req.legacyClosed) = iidRatesFromSpec(doc, rate);
    req.scenarioLabel = kLegacyScenario;
  }

  req.samples = doc.integerOr("samples", 200, 1, limits.maxSamples);
  req.seed = doc.integerOr("seed", 1, 0, UINT64_MAX);
  req.spareRows = doc.integerOr("spare_rows", 0, 0, limits.maxSpareRows);
  if (doc.find("multilevel") != nullptr) req.multiLevel = doc.boolOr("multilevel", false);
  if (doc.find("epsilon") != nullptr) req.epsilon = doc.numberOr("epsilon", 0.0, 0.0, 1.0);
  if (doc.find("deadline_ms") != nullptr) {
    req.deadlineMillis = doc.numberOr("deadline_ms", 0.0);
    if (!(*req.deadlineMillis > 0))
      throw ParseError("member \"deadline_ms\" must be a positive number");
  }
  req.useCache = doc.boolOr("cache", true);
  const std::string lane = doc.stringOr("lane", "interactive");
  if (lane != "interactive" && lane != "batch")
    throw ParseError("member \"lane\" must be \"interactive\" or \"batch\"");
  req.lane = lane == "batch" ? Request::Lane::Batch : Request::Lane::Interactive;
  return req;
}

}  // namespace

Request parseRequest(const std::string& line, const RequestLimits& limits) {
  if (line.size() > limits.maxLineBytes) {
    // The observed length matters operationally: it tells a client whether
    // it sent one huge request or forgot its newline framing entirely.
    oversizedLineCounter().add(1);
    throw ServeError(ErrorCode::Parse, "request line is " + std::to_string(line.size()) +
                                           " bytes, exceeds the " +
                                           std::to_string(limits.maxLineBytes) + "-byte limit");
  }
  // The one translation to the service's `parse` taxonomy code. A stray
  // precondition (InvalidArgument) is bad client input too: nothing but a
  // `parse` ServeError escapes.
  try {
    return readRequest(parseSpec(line), limits);
  } catch (const ParseError& e) {
    throw ServeError(ErrorCode::Parse, e.what());
  } catch (const InvalidArgument& e) {
    throw ServeError(ErrorCode::Parse, e.what());
  }
}

std::string extractRequestId(const std::string& line) {
  try {
    const SpecValue doc = parseSpec(line);
    if (doc.isObject()) return idOf(doc);
  } catch (...) {
    // Fall through to the lexical scan below.
  }
  // The line is malformed JSON, but the client still deserves a correlatable
  // error: scan for a top-level-looking `"id": <string|number>` token pair.
  const std::size_t key = line.find("\"id\"");
  if (key == std::string::npos) return "";
  std::size_t pos = key + 4;
  while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) ++pos;
  if (pos >= line.size() || line[pos] != ':') return "";
  ++pos;
  while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) ++pos;
  if (pos >= line.size()) return "";
  if (line[pos] == '"') {
    const std::size_t end = line.find('"', pos + 1);
    if (end == std::string::npos) return "";
    return line.substr(pos + 1, end - pos - 1);
  }
  const std::size_t end = line.find_first_not_of("-+.0123456789eE", pos);
  return line.substr(pos, end == std::string::npos ? std::string::npos : end - pos);
}

}  // namespace mcx::serve
