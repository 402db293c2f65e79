// Span/TraceSink behaviour: disarmed spans stay inert (no clock, returns
// 0), armed spans emit Chrome trace_event lines whose timestamps nest the
// way the code did, histogram-fed spans record regardless of arming, and
// disarm/re-arm round-trips cleanly. The emitted lines are parsed with the
// repo's own SpecValue parser to pin the JSON shape chrome://tracing needs.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "scenario/spec.hpp"

namespace mcx::obs {
namespace {

struct Event {
  std::string name;
  double ts = 0;   // microseconds
  double dur = 0;  // microseconds
  int tid = -1;
};

/// Parses the trace file: "[" header then one `{...},` event per line.
std::vector<Event> readTrace(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "trace file missing: " << path;
  std::vector<Event> events;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '[') continue;
    if (line.back() == ',') line.pop_back();
    const SpecValue doc = parseSpec(line);
    EXPECT_TRUE(doc.isObject()) << line;
    Event e;
    e.name = doc.stringOr("name", "");
    e.ts = doc.numberOr("ts", -1);
    e.dur = doc.numberOr("dur", -1);
    e.tid = static_cast<int>(doc.numberOr("tid", -1));
    EXPECT_EQ(doc.stringOr("ph", ""), "X") << "complete events only";
    EXPECT_EQ(doc.stringOr("cat", ""), "mcx");
    events.push_back(e);
  }
  return events;
}

class ObsTrace : public ::testing::Test {
protected:
  void SetUp() override {
    // Unique per test: ctest runs each test as its own process, possibly in
    // parallel — a shared path lets concurrent ObsTrace tests clobber each
    // other's trace files (observed as a flaky parse failure under -j).
    path_ = ::testing::TempDir() + "mcx_trace_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".json";
  }
  void TearDown() override {
    disarmTrace();
    std::remove(path_.c_str());
  }
  std::string path_;
};

TEST_F(ObsTrace, DisarmedSpanIsInertAndReturnsZero) {
  ASSERT_FALSE(traceArmed());
  Span span("nothing");
  EXPECT_EQ(span.finish(), 0u);
  EXPECT_EQ(span.finish(), 0u);  // idempotent
}

TEST_F(ObsTrace, HistogramFedSpanRecordsEvenWhenDisarmed) {
  ASSERT_FALSE(traceArmed());
  Histogram hist;
  {
    Span span("timed", &hist);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_GE(hist.snapshot().max, 1'000'000u) << "slept >= 1ms";
}

TEST_F(ObsTrace, NestedSpansEmitContainedOrderedEvents) {
  armTrace(path_);
  {
    Span outer("outer");
    {
      Span first("inner-a");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    {
      Span second("inner-b");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  disarmTrace();

  const std::vector<Event> events = readTrace(path_);
  ASSERT_EQ(events.size(), 3u);
  // Complete events flush at finish time: children precede their parent.
  EXPECT_EQ(events[0].name, "inner-a");
  EXPECT_EQ(events[1].name, "inner-b");
  EXPECT_EQ(events[2].name, "outer");

  const Event& outer = events[2];
  // Chrome reconstructs nesting from containment; timestamps are rounded
  // to 1ns (0.001us) in the writer, so allow that much slack.
  constexpr double kEps = 0.002;
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_GE(events[i].ts + kEps, outer.ts) << events[i].name;
    EXPECT_LE(events[i].ts + events[i].dur, outer.ts + outer.dur + kEps)
        << events[i].name;
    EXPECT_EQ(events[i].tid, outer.tid) << "same thread, same lane";
  }
  // The two siblings do not overlap.
  EXPECT_LE(events[0].ts + events[0].dur, events[1].ts + kEps);
}

TEST_F(ObsTrace, EarlyFinishStopsTheClockAndTheDestructorStaysQuiet) {
  armTrace(path_);
  {
    Span span("early");
    const std::uint64_t nanos = span.finish();
    EXPECT_GT(nanos, 0u);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    // Destructor must not write a second event.
  }
  disarmTrace();
  EXPECT_EQ(readTrace(path_).size(), 1u);
}

TEST_F(ObsTrace, ThreadsGetDistinctStableLanes) {
  const int here = currentTraceTid();
  EXPECT_EQ(currentTraceTid(), here) << "lane id is stable per thread";
  int other = -1;
  std::thread t([&other] { other = currentTraceTid(); });
  t.join();
  EXPECT_NE(other, here);
}

TEST_F(ObsTrace, SpansFromMultipleThreadsSerializeIntoOneValidFile) {
  armTrace(path_);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 25; ++i) Span span("worker");
    });
  }
  for (std::thread& t : threads) t.join();
  disarmTrace();
  const std::vector<Event> events = readTrace(path_);
  EXPECT_EQ(events.size(), 100u);  // every event parsed cleanly
}

TEST_F(ObsTrace, ArmTraceToAnUnwritablePathThrows) {
  EXPECT_THROW(armTrace("/nonexistent-dir/trace.json"), std::runtime_error);
  EXPECT_FALSE(traceArmed());
}

}  // namespace
}  // namespace mcx::obs
