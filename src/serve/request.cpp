#include "serve/request.hpp"

#include <cmath>
#include <sstream>

#include "circuit/registry.hpp"
#include "map/registry.hpp"
#include "obs/metrics.hpp"
#include "scenario/defect_model.hpp"
#include "scenario/registry.hpp"
#include "scenario/spec.hpp"
#include "serve/error.hpp"

namespace mcx::serve {

namespace {

[[noreturn]] void failParse(const std::string& msg) {
  throw ServeError(ErrorCode::Parse, "request: " + msg);
}

obs::Counter& oversizedLineCounter() {
  static obs::Counter& c = obs::Registry::global().counter("serve.oversized_lines");
  return c;
}

/// A non-negative integral number member within [min, max]; requests with
/// "samples": 1e300 or "seed": 1.5 are declaration bugs, not roundables.
std::uint64_t integralOr(const SpecValue& doc, const std::string& key, std::uint64_t fallback,
                         std::uint64_t min, std::uint64_t max) {
  const SpecValue* v = doc.find(key);
  if (v == nullptr) return fallback;
  if (v->kind != SpecValue::Kind::Number)
    failParse("member \"" + key + "\" must be a number");
  const double d = v->number;
  if (!(d >= 0) || d != std::floor(d) || d > 1.8e19)
    failParse("member \"" + key + "\" must be a non-negative integer");
  const auto value = static_cast<std::uint64_t>(d);
  if (value < min || value > max)
    failParse("member \"" + key + "\" out of range [" + std::to_string(min) + ", " +
              std::to_string(max) + "]");
  return value;
}

double rateOr(const SpecValue& doc, const std::string& key, double fallback) {
  const double value = doc.numberOr(key, fallback);
  if (!(value >= 0.0 && value <= 1.0))
    failParse("member \"" + key + "\" must be a rate in [0, 1]");
  return value;
}

const char* const kKnownMembers[] = {"id",     "circuit",    "mapper",     "scenario",
                                     "rate",   "open",       "closed",     "samples",
                                     "seed",   "spare_rows", "multilevel", "deadline_ms",
                                     "cache",  "lane",       "epsilon"};

void rejectUnknownMembers(const SpecValue& doc) {
  for (const auto& [name, value] : doc.members) {
    bool known = false;
    for (const char* member : kKnownMembers)
      if (name == member) {
        known = true;
        break;
      }
    if (!known) failParse("unknown member \"" + name + "\"");
  }
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
  failParse("member \"id\" must be a string or a number");
}

}  // namespace

Request parseRequest(const std::string& line, const RequestLimits& limits) {
  if (line.size() > limits.maxLineBytes) {
    // The observed length matters operationally: it tells a client whether
    // it sent one huge request or forgot its newline framing entirely.
    oversizedLineCounter().add(1);
    failParse("line is " + std::to_string(line.size()) + " bytes, exceeds the " +
              std::to_string(limits.maxLineBytes) + "-byte limit");
  }

  SpecValue doc;
  try {
    doc = parseSpec(line);
  } catch (const ParseError& e) {
    failParse(e.what());
  }
  if (!doc.isObject()) failParse("request must be a JSON object");
  rejectUnknownMembers(doc);

  Request req;
  req.id = idOf(doc);

  // Resolution goes through the exact registries the builder uses; their
  // ParseErrors (unknown preset, malformed spec, bad option) become the
  // service's `parse` taxonomy code.
  try {
    const SpecValue* circuit = doc.find("circuit");
    if (circuit == nullptr) failParse("member \"circuit\" is required");
    if (circuit->kind == SpecValue::Kind::String)
      req.circuit = makeCircuitSpec(circuit->string);
    else if (circuit->isObject())
      req.circuit = circuitSpecFromSpec(*circuit);
    else
      failParse("member \"circuit\" must be a string or an object");

    const SpecValue* mapper = doc.find("mapper");
    if (mapper == nullptr)
      req.mapper = makeMapper("hba");
    else if (mapper->kind == SpecValue::Kind::String)
      req.mapper = makeMapper(mapper->string);
    else if (mapper->isObject())
      req.mapper = mapperFromSpec(*mapper);
    else
      failParse("member \"mapper\" must be a string or an object");

    const double rate = rateOr(doc, "rate", 0.10);
    const SpecValue* scenario = doc.find("scenario");
    if (scenario == nullptr) {
      req.scenario = nullptr;  // legacy rate-pair path
      req.legacyOpen = rateOr(doc, "open", rate);
      req.legacyClosed = rateOr(doc, "closed", 0.0);
      // The pair is checked as the model that will draw it: an over-budget
      // open + closed is a parse error here, not an engine failure later.
      static_cast<void>(IidBernoulli(req.legacyOpen, req.legacyClosed));
      req.scenarioLabel = kLegacyScenario;
    } else {
      if (doc.find("open") != nullptr || doc.find("closed") != nullptr)
        failParse("members \"open\"/\"closed\" require the legacy path (no \"scenario\")");
      if (scenario->kind == SpecValue::Kind::String)
        req.scenario = makeScenario(scenario->string, rate);
      else if (scenario->isObject())
        req.scenario = modelFromSpec(*scenario);
      else
        failParse("member \"scenario\" must be a string or an object");
      req.scenarioLabel = req.scenario->describe();
    }
  } catch (const ServeError&) {
    throw;
  } catch (const ParseError& e) {
    failParse(e.what());
  } catch (const InvalidArgument& e) {
    failParse(e.what());
  }

  req.samples =
      static_cast<std::size_t>(integralOr(doc, "samples", 200, 1, limits.maxSamples));
  req.seed = integralOr(doc, "seed", 1, 0, UINT64_MAX);
  req.spareRows =
      static_cast<std::size_t>(integralOr(doc, "spare_rows", 0, 0, limits.maxSpareRows));

  const SpecValue* multilevel = doc.find("multilevel");
  if (multilevel != nullptr) {
    if (multilevel->kind != SpecValue::Kind::Bool)
      failParse("member \"multilevel\" must be a boolean");
    req.multiLevel = multilevel->boolean;
  }

  const SpecValue* epsilon = doc.find("epsilon");
  if (epsilon != nullptr) {
    if (epsilon->kind != SpecValue::Kind::Number ||
        !(epsilon->number >= 0.0 && epsilon->number <= 1.0))
      failParse("member \"epsilon\" must be a number in [0, 1]");
    req.epsilon = epsilon->number;
  }

  const SpecValue* deadline = doc.find("deadline_ms");
  if (deadline != nullptr) {
    if (deadline->kind != SpecValue::Kind::Number || !(deadline->number > 0))
      failParse("member \"deadline_ms\" must be a positive number");
    req.deadlineMillis = deadline->number;
  }
  try {
    req.useCache = doc.boolOr("cache", true);
  } catch (const ParseError& e) {
    failParse(e.what());
  }

  const SpecValue* lane = doc.find("lane");
  if (lane != nullptr) {
    if (lane->kind != SpecValue::Kind::String ||
        (lane->string != "interactive" && lane->string != "batch"))
      failParse("member \"lane\" must be \"interactive\" or \"batch\"");
    req.lane = lane->string == "batch" ? Request::Lane::Batch : Request::Lane::Interactive;
  }
  return req;
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
