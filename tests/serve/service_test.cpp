// ExperimentService behaviour under adversity: deadline enforcement with
// partial counts, load shedding that never blocks in-flight work,
// mid-experiment cancellation, clean drain, structured internal failures —
// the fault-injection layer manufactures the adversity on demand.
#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "scenario/spec.hpp"
#include "util/faultinject.hpp"

namespace mcx::serve {
namespace {

using faultinject::Kind;

/// Collects response lines (thread-safe) and finds them by id.
class ResponseLog {
public:
  ExperimentService::Sink sink() {
    return [this](const std::string& line) {
      const std::lock_guard<std::mutex> lock(mutex_);
      lines_.push_back(line);
    };
  }
  std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return lines_.size();
  }
  /// Parsed response for @p id; fails the test when absent.
  SpecValue response(const std::string& id) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const std::string& line : lines_) {
      const SpecValue doc = parseSpec(line);
      if (doc.stringOr("id", "") == id) return doc;
    }
    ADD_FAILURE() << "no response for id " << id;
    return SpecValue{};
  }
  bool has(const std::string& id) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const std::string& line : lines_) {
      const SpecValue doc = parseSpec(line);
      if (doc.stringOr("id", "") == id) return true;
    }
    return false;
  }

private:
  mutable std::mutex mutex_;
  std::vector<std::string> lines_;
};

std::string errorCode(const SpecValue& response) {
  const SpecValue* error = response.find("error");
  if (error == nullptr) return "";
  return error->stringOr("code", "");
}

/// Spin until @p done or ~5s; the faultinject hit counters make "the worker
/// reached the experiment" observable without sleeping blind.
template <typename Fn>
bool waitFor(const Fn& done) {
  for (int i = 0; i < 500; ++i) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return done();
}

class ServiceTest : public ::testing::Test {
protected:
  void TearDown() override { faultinject::reset(); }

  static ServiceOptions smallOptions() {
    ServiceOptions options;
    options.queueDepth = 4;
    options.requestThreads = 1;
    options.poolThreads = 1;
    return options;
  }
};

TEST_F(ServiceTest, CompletesSimpleRequestsAndCountsThem) {
  ResponseLog log;
  ExperimentService service(smallOptions(), log.sink());
  service.submit(R"({"id": "a", "circuit": "rd53-min", "samples": 5, "seed": 7})");
  service.submit(R"({"id": "b", "circuit": "rd53-min", "samples": 5, "seed": 8})");
  service.drain();

  const SpecValue a = log.response("a");
  EXPECT_EQ(a.stringOr("status", ""), "ok");
  EXPECT_EQ(a.numberOr("completed", 0), 5.0);
  EXPECT_EQ(log.response("b").stringOr("status", ""), "ok");

  const ServiceCounters counters = service.counters();
  EXPECT_EQ(counters.received, 2u);
  EXPECT_EQ(counters.accepted, 2u);
  EXPECT_EQ(counters.completedOk, 2u);
  EXPECT_EQ(counters.samplesCompleted, 10u);
  // The second identical circuit coalesced onto the first's compilation.
  EXPECT_GE(counters.circuitCacheHits + counters.circuitCacheMisses, 2u);
  EXPECT_GE(counters.circuitCacheHits, 1u);
}

TEST_F(ServiceTest, DeadlineExceededMidExperimentReportsPartialCounts) {
  // Every sample stalls 5ms; 1000 samples would take ~5s but the budget is
  // 100ms: the worker must notice between samples and abort with partials.
  faultinject::arm("mc.sample", {Kind::Stall, 5.0, 0, UINT64_MAX});
  ResponseLog log;
  ExperimentService service(smallOptions(), log.sink());
  service.submit(
      R"({"id": "slow", "circuit": "rd53-min", "samples": 1000, "seed": 7, "deadline_ms": 100})");
  service.drain();

  const SpecValue response = log.response("slow");
  EXPECT_EQ(response.stringOr("status", ""), "error");
  EXPECT_EQ(errorCode(response), "deadline_exceeded");
  const double completed = response.numberOr("completed", -1);
  EXPECT_GT(completed, 0.0) << "some samples should finish before the deadline";
  EXPECT_LT(completed, 1000.0) << "the deadline should cut the run short";
  EXPECT_EQ(response.numberOr("samples", 0), 1000.0);
  EXPECT_EQ(service.counters().deadlineExceeded, 1u);
  EXPECT_EQ(service.counters().completedOk, 0u);
}

TEST_F(ServiceTest, DefaultDeadlineAppliesToRequestsWithoutOne) {
  faultinject::arm("mc.sample", {Kind::Stall, 5.0, 0, UINT64_MAX});
  ServiceOptions options = smallOptions();
  options.defaultDeadlineMillis = 100;
  ResponseLog log;
  ExperimentService service(options, log.sink());
  service.submit(R"({"id": "slow", "circuit": "rd53-min", "samples": 1000, "seed": 7})");
  service.drain();
  EXPECT_EQ(errorCode(log.response("slow")), "deadline_exceeded");
}

TEST_F(ServiceTest, AbsurdDeadlineBudgetSaturatesInsteadOfExpiringInstantly) {
  // deadline_ms is client input: 1e300 ms would overflow the nanosecond
  // conversion unclamped and come back as an instantly-expired deadline.
  // Saturated, it behaves like "no deadline" and the request completes.
  ResponseLog log;
  ExperimentService service(smallOptions(), log.sink());
  service.submit(
      R"({"id": "huge", "circuit": "rd53-min", "samples": 5, "seed": 7, "deadline_ms": 1e300})");
  service.drain();
  EXPECT_EQ(log.response("huge").stringOr("status", ""), "ok");
  EXPECT_EQ(service.counters().deadlineExceeded, 0u);
  EXPECT_EQ(service.counters().completedOk, 1u);
}

TEST_F(ServiceTest, DeadlineSpentInQueueIsEnforcedBeforeAnyWork) {
  // One executor: a stalled request occupies it while a 20ms-deadline
  // request waits behind it long enough to expire in the queue.
  faultinject::arm("mc.sample", {Kind::Stall, 20.0, 0, UINT64_MAX});
  ResponseLog log;
  ExperimentService service(smallOptions(), log.sink());
  service.submit(R"({"id": "busy", "circuit": "rd53-min", "samples": 20, "seed": 7})");
  ASSERT_TRUE(waitFor([] { return faultinject::hits("mc.sample") >= 1; }));
  service.submit(
      R"({"id": "late", "circuit": "rd53-min", "samples": 5, "seed": 7, "deadline_ms": 20})");
  service.drain();

  EXPECT_EQ(log.response("busy").stringOr("status", ""), "ok");
  const SpecValue late = log.response("late");
  EXPECT_EQ(errorCode(late), "deadline_exceeded");
  // Expired before starting: no samples were run at all.
  EXPECT_EQ(late.find("completed"), nullptr);
}

TEST_F(ServiceTest, OverloadSheddingIsImmediateAndSparesInFlightWork) {
  faultinject::arm("mc.sample", {Kind::Stall, 10.0, 0, UINT64_MAX});
  ServiceOptions options = smallOptions();
  options.queueDepth = 1;
  ResponseLog log;
  ExperimentService service(options, log.sink());

  // First request occupies the single executor...
  service.submit(R"({"id": "running", "circuit": "rd53-min", "samples": 50, "seed": 7})");
  ASSERT_TRUE(waitFor([] { return faultinject::hits("mc.sample") >= 1; }));
  // ...second fills the depth-1 queue...
  service.submit(R"({"id": "queued", "circuit": "rd53-min", "samples": 5, "seed": 7})");
  // ...third must be shed immediately, without touching the other two.
  const auto start = std::chrono::steady_clock::now();
  service.submit(R"({"id": "shed", "circuit": "rd53-min", "samples": 5, "seed": 7})");
  const auto shedLatency = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(shedLatency).count(), 100)
      << "shedding must not wait for in-flight work";
  EXPECT_TRUE(log.has("shed")) << "the overloaded response is synchronous";
  EXPECT_EQ(errorCode(log.response("shed")), "overloaded");

  service.drain();
  EXPECT_EQ(log.response("running").stringOr("status", ""), "ok");
  EXPECT_EQ(log.response("queued").stringOr("status", ""), "ok");
  const ServiceCounters counters = service.counters();
  EXPECT_EQ(counters.shedOverloaded, 1u);
  EXPECT_EQ(counters.completedOk, 2u);
}

TEST_F(ServiceTest, ShutdownNowCancelsMidExperimentWithPartialCounts) {
  faultinject::arm("mc.sample", {Kind::Stall, 5.0, 0, UINT64_MAX});
  ResponseLog log;
  ExperimentService service(smallOptions(), log.sink());
  service.submit(R"({"id": "doomed", "circuit": "rd53-min", "samples": 1000, "seed": 7})");
  ASSERT_TRUE(waitFor([] { return faultinject::hits("mc.sample") >= 1; }));
  service.shutdownNow();

  const SpecValue response = log.response("doomed");
  EXPECT_EQ(response.stringOr("status", ""), "error");
  EXPECT_EQ(errorCode(response), "cancelled");
  EXPECT_LT(response.numberOr("completed", 1e9), 1000.0);
  EXPECT_EQ(service.counters().cancelled, 1u);
  // The service is latched draining: new work is shed, not queued.
  service.submit(R"({"id": "after", "circuit": "rd53-min", "samples": 5})");
  EXPECT_EQ(errorCode(log.response("after")), "overloaded");
}

TEST_F(ServiceTest, DrainFinishesAdmittedWorkThenRejectsNew) {
  ResponseLog log;
  ExperimentService service(smallOptions(), log.sink());
  for (int i = 0; i < 3; ++i) {
    // Built via append: GCC 12 -Wrestrict false positive (PR 105329).
    std::string line = R"({"id": "d)";
    line += std::to_string(i);
    line += R"(", "circuit": "rd53-min", "samples": 5, "seed": 7})";
    service.submit(line);
  }
  service.drain();
  for (int i = 0; i < 3; ++i) {
    std::string id = "d";
    id += std::to_string(i);
    EXPECT_EQ(log.response(id).stringOr("status", ""), "ok");
  }
  EXPECT_EQ(service.counters().completedOk, 3u);

  service.submit(R"({"id": "post", "circuit": "rd53-min", "samples": 5})");
  EXPECT_EQ(errorCode(log.response("post")), "overloaded");
  EXPECT_EQ(service.counters().shedOverloaded, 1u);
}

TEST_F(ServiceTest, SynthesisFailureIsInternalAndTheServiceSurvives) {
  faultinject::arm("circuit.synthesize", {Kind::Throw, 0, 0, UINT64_MAX});
  ResponseLog log;
  ExperimentService service(smallOptions(), log.sink());
  // cache:false forces the raw pipeline, so the armed synthesis site fires.
  service.submit(
      R"({"id": "boom", "circuit": {"circuit": "gen:majority5", "synth": "espresso"}, )"
      R"("samples": 5, "cache": false})");
  // drain() latches the service closed; wait for the response instead so
  // the service stays open for the follow-up request below.
  ASSERT_TRUE(waitFor([&] { return log.has("boom"); }));
  EXPECT_EQ(errorCode(log.response("boom")), "internal");
  EXPECT_EQ(service.counters().internalErrors, 1u);

  // The daemon must outlive the request's death.
  faultinject::reset();
  service.submit(R"({"id": "next", "circuit": "rd53-min", "samples": 5, "seed": 7})");
  // drain() is one-shot; wait for the response instead.
  ASSERT_TRUE(waitFor([&] { return log.has("next"); }));
  EXPECT_EQ(log.response("next").stringOr("status", ""), "ok");
}

TEST_F(ServiceTest, AllocationFailureAtAdmissionIsInternal) {
  faultinject::arm("serve.enqueue", {Kind::BadAlloc, 0, 0, UINT64_MAX});
  ResponseLog log;
  ExperimentService service(smallOptions(), log.sink());
  service.submit(R"({"id": "oom", "circuit": "rd53-min", "samples": 5})");
  EXPECT_EQ(errorCode(log.response("oom")), "internal");
  EXPECT_EQ(service.counters().internalErrors, 1u);
  EXPECT_EQ(service.counters().accepted, 0u);
}

TEST_F(ServiceTest, ParseErrorsAnswerSynchronouslyWithBestEffortId) {
  ResponseLog log;
  ExperimentService service(smallOptions(), log.sink());
  service.submit(R"({"id": "typo", "circuit": "rd53-min", "sample": 5})");
  service.submit(R"({"id": "trunc", "circuit": )");
  service.submit("not json at all");
  EXPECT_EQ(log.size(), 3u);  // all three answered without touching the queue
  EXPECT_EQ(errorCode(log.response("typo")), "parse");
  EXPECT_EQ(errorCode(log.response("trunc")), "parse");
  EXPECT_EQ(errorCode(log.response("")), "parse");
  EXPECT_EQ(service.counters().parseErrors, 3u);
  EXPECT_EQ(service.counters().accepted, 0u);
}

TEST_F(ServiceTest, MalformedInlineCircuitsAreParseErrorsNotInternal) {
  // These pass admission and fail only when a worker compiles the circuit:
  // a syntax error, QM and ISOP past their input bounds, a bad PLA row.
  // Still bad client input, so `parse`, with no source-location leak.
  ResponseLog log;
  ExperimentService service(smallOptions(), log.sink());
  service.submit(R"({"id": "sop", "circuit": "sop:x1 +", "samples": 5})");
  service.submit(
      R"({"id": "qm", "circuit": {"circuit": "sop:x1 x13", "synth": "qm"}, "samples": 5})");
  service.submit(
      R"({"id": "isop", "circuit": {"circuit": "sop:x1 x21", "synth": "isop"}, "samples": 5})");
  service.submit(R"({"id": "pla", "circuit": "pla:.i 2\n.o 1\n1x1 1\n.e", "samples": 5})");
  service.drain();
  for (const char* id : {"sop", "qm", "isop", "pla"}) {
    const SpecValue response = log.response(id);
    EXPECT_EQ(errorCode(response), "parse") << id;
    const SpecValue* error = response.find("error");
    ASSERT_NE(error, nullptr) << id;
    EXPECT_EQ(error->stringOr("message", "").find("requirement failed"), std::string::npos)
        << id << ": " << error->stringOr("message", "");
  }
  EXPECT_EQ(service.counters().parseErrors, 4u);
  EXPECT_EQ(service.counters().internalErrors, 0u);
}

TEST_F(ServiceTest, PerRequestSinkOverridesTheDefault) {
  ResponseLog defaultLog;
  ResponseLog connectionLog;
  ExperimentService service(smallOptions(), defaultLog.sink());
  service.submit(R"({"id": "routed", "circuit": "rd53-min", "samples": 5, "seed": 7})",
                 connectionLog.sink());
  service.drain();
  EXPECT_EQ(defaultLog.size(), 0u);
  EXPECT_EQ(connectionLog.response("routed").stringOr("status", ""), "ok");
}

TEST_F(ServiceTest, SlowPerRequestSinkDoesNotStallOtherResponses) {
  // A per-request sink wedged on one slow consumer must not hold a global
  // emission lock: responses bound for the default sink (and any other
  // connection) keep flowing on the second request thread.
  ServiceOptions options = smallOptions();
  options.requestThreads = 2;
  ResponseLog log;
  ExperimentService service(options, log.sink());

  std::mutex gate;
  std::condition_variable cv;
  bool blocked = false;
  bool release = false;
  ExperimentService::Sink stuckSink = [&](const std::string&) {
    std::unique_lock<std::mutex> lock(gate);
    blocked = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  service.submit(R"({"id": "stuck", "circuit": "rd53-min", "samples": 5, "seed": 7})",
                 stuckSink);
  {
    std::unique_lock<std::mutex> lock(gate);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5), [&] { return blocked; }))
        << "the stuck request never reached its sink";
  }

  service.submit(R"({"id": "flows", "circuit": "rd53-min", "samples": 5, "seed": 7})");
  EXPECT_TRUE(waitFor([&] { return log.has("flows"); }))
      << "a wedged per-request sink stalled an unrelated response";

  {
    const std::lock_guard<std::mutex> lock(gate);
    release = true;
  }
  cv.notify_all();
  service.drain();
  EXPECT_EQ(log.response("flows").stringOr("status", ""), "ok");
  EXPECT_EQ(service.counters().completedOk, 2u);
}

TEST_F(ServiceTest, StatsRequestAnswersInlineWithRegistrySnapshot) {
  ResponseLog log;
  ExperimentService service(smallOptions(), log.sink());
  service.submit(R"({"id": "work", "circuit": "rd53-min", "samples": 5, "seed": 7})");
  service.drain();
  // Answered synchronously on the submitting thread — works even after the
  // drain latch closes the queue, so an operator can always pull stats.
  service.submit(R"({"id": "s1", "type": "stats"})");
  ASSERT_TRUE(log.has("s1"));

  const SpecValue stats = log.response("s1");
  EXPECT_EQ(stats.stringOr("status", ""), "ok");
  const SpecValue* payload = stats.find("stats");
  ASSERT_NE(payload, nullptr);
  const SpecValue* svc = payload->find("service");
  ASSERT_NE(svc, nullptr);
  EXPECT_EQ(svc->numberOr("completed_ok", -1), 1.0);
  EXPECT_EQ(svc->numberOr("stats_requests", -1), 1.0);
  const SpecValue* registry = payload->find("registry");
  ASSERT_NE(registry, nullptr);
  const SpecValue* hists = registry->find("histograms");
  ASSERT_NE(hists, nullptr);
  // The per-stage latency histograms saw the completed request (the
  // registry is process-wide, so counts are >= this service's one).
  for (const char* name :
       {"serve.parse", "serve.queue_wait", "serve.synthesis", "serve.mc_run"}) {
    const SpecValue* hist = hists->find(name);
    ASSERT_NE(hist, nullptr) << name;
    EXPECT_GE(hist->numberOr("count", 0), 1.0) << name;
  }

  const ServiceCounters counters = service.counters();
  EXPECT_EQ(counters.statsRequests, 1u);
  EXPECT_EQ(counters.received, 2u);
  EXPECT_EQ(counters.accepted, 1u);  // stats never touches the queue
}

TEST_F(ServiceTest, CoverStageHitsAndMissesSurfaceInCounters) {
  // Two realizations of one synthesis declaration: the second request
  // misses the full-spec cache (different realize) but reuses the
  // synthesized cover, which the counters must break out per stage.
  ResponseLog log;
  ExperimentService service(smallOptions(), log.sink());
  service.submit(
      R"({"id": "f3", "circuit": {"circuit": "sop:x1 x2 + x3 x4 + !x1 x5", )"
      R"("synth": "qm", "realize": "two-level"}, "samples": 5, "seed": 7})");
  service.submit(
      R"({"id": "f4", "circuit": {"circuit": "sop:x1 x2 + x3 x4 + !x1 x5", )"
      R"("synth": "qm", "realize": "multilevel"}, "samples": 5, "seed": 7})");
  service.drain();
  EXPECT_EQ(log.response("f3").stringOr("status", ""), "ok");
  EXPECT_EQ(log.response("f4").stringOr("status", ""), "ok");

  const ServiceCounters counters = service.counters();
  EXPECT_EQ(counters.circuitCacheMisses, 2u) << "distinct realizations";
  EXPECT_GE(counters.circuitCoverHits, 1u) << "shared synthesis stage";
  // The JSON snapshot carries the cover stage too.
  const std::string json = service.countersJson();
  EXPECT_NE(json.find("\"circuit_cover_hits\""), std::string::npos);
  EXPECT_NE(json.find("\"circuit_cover_misses\""), std::string::npos);
}

TEST_F(ServiceTest, DestructorWithWorkInFlightDoesNotHangOrLeak) {
  faultinject::arm("mc.sample", {Kind::Stall, 5.0, 0, UINT64_MAX});
  ResponseLog log;
  {
    ExperimentService service(smallOptions(), log.sink());
    service.submit(R"({"id": "cut", "circuit": "rd53-min", "samples": 1000, "seed": 7})");
    ASSERT_TRUE(waitFor([] { return faultinject::hits("mc.sample") >= 1; }));
    // ~ExperimentService fires the token and joins: must terminate promptly.
  }
  EXPECT_EQ(errorCode(log.response("cut")), "cancelled");
}

}  // namespace
}  // namespace mcx::serve
