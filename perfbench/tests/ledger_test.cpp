// Tests of the benchmark's measurement primitives: tail-aware percentiles,
// self-time subtraction, trace export and the seeded arrival schedule.
#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "ledger.hpp"

namespace perfbench {
namespace {

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(Percentile, NearestRankOnUnsortedInput) {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_EQ(quantile(v, 0.5), 3);
  EXPECT_EQ(quantile(v, 0.0), 1);
  EXPECT_EQ(quantile(v, 1.0), 5);
  EXPECT_EQ(median({}), 0);
}

TEST(Percentile, CountsSamplesBeyondTheRank) {
  EXPECT_EQ(samplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(samplesBeyond(999, 0.99), 9u);
  EXPECT_EQ(samplesBeyond(100, 0.5), 50u);
  EXPECT_EQ(samplesBeyond(0, 0.99), 0u);
}

TEST(Percentile, TailNeedsTenSamplesBeyond) {
  EXPECT_FALSE(tailQuantile(iota(999), 0.99).has_value());
  const std::optional<double> p99 = tailQuantile(iota(1000), 0.99);
  ASSERT_TRUE(p99.has_value());
  EXPECT_EQ(*p99, 990);
  // A looser threshold admits smaller sets.
  EXPECT_TRUE(tailQuantile(iota(100), 0.99, 1).has_value());
  EXPECT_FALSE(tailQuantile(iota(100), 0.99, 2).has_value());
}

TEST(Percentile, WindowedQuantileIgnoresAMinorityOfSlowWindows) {
  // Five windows of 1000: one slow episode (x10) in the second window.
  std::vector<double> v;
  for (int w = 0; w < 5; ++w)
    for (double x : iota(1000)) v.push_back(w == 1 ? 10 * x : x);
  EXPECT_EQ(windowedQuantile(v, 1000, 0.99), 990);
  EXPECT_EQ(windowedQuantile(v, 1000, 0.5), 500);
  // One quantile over everything would have moved.
  EXPECT_GT(quantile(v, 0.99), 990);
  // Fewer values than two windows: a plain quantile.
  EXPECT_EQ(windowedQuantile(iota(1500), 1000, 0.5), 750);
  // 3999 values make three windows; the 999 left over join the third, whose
  // median moves from 2 to 100, so the median over {1, 3, 100} is 3 (it
  // would be 2 if the remainder were dropped).
  std::vector<double> parts(1000, 1.0);
  parts.insert(parts.end(), 1000, 3.0);
  parts.insert(parts.end(), 600, 2.0);
  parts.insert(parts.end(), 400 + 999, 100.0);
  EXPECT_EQ(windowedQuantile(parts, 1000, 0.5), 3);
}

TEST(Rates, SliceRatesCloseAtTheFirstEventPastEachSlice) {
  // One event every 0.25 s for 3.5 s, each worth 2: 8 per second.
  std::vector<double> times, amounts;
  for (int i = 1; i <= 14; ++i) {
    times.push_back(0.25 * i);
    amounts.push_back(2.0);
  }
  std::reverse(times.begin(), times.end());  // order of arrival does not matter
  const std::vector<double> rates = sliceRates(times, amounts, 1.0, 3.5);
  ASSERT_EQ(rates.size(), 3u);  // closes at 1, 2 and 3 s; the last 0.5 s is dropped
  for (const double r : rates) EXPECT_DOUBLE_EQ(r, 8.0);
  // A phase shorter than one slice reports its overall rate.
  const std::vector<double> shortPhase = sliceRates({0.1, 0.2}, {1.0, 1.0}, 1.0, 0.5);
  ASSERT_EQ(shortPhase.size(), 1u);
  EXPECT_DOUBLE_EQ(shortPhase[0], 4.0);
}

TEST(SelfTime, SubtractsDirectChildrenOnly) {
  // root [0,100) > child [10,40) > grandchild [15,25); sibling [50,90).
  std::vector<Span> spans(4);
  spans[0] = {"root", 0, 100, -1, 1};
  spans[1] = {"child", 10, 40, 0, 1};
  spans[2] = {"grandchild", 15, 25, 1, 1};
  spans[3] = {"sibling", 50, 90, 0, 1};
  const std::vector<double> self = selfTimes(spans);
  EXPECT_EQ(self[0], 100 - 30 - 40);
  EXPECT_EQ(self[1], 30 - 10);
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 40);
  double sum = 0;
  for (const double s : self) sum += s;
  EXPECT_EQ(sum, 100);  // self times of one tree partition its root
}

TEST(SelfTime, LaneNestingFollowsScopes) {
  std::vector<Lane> lanes(1);
  {
    const Scope outer(&lanes[0], "outer", 7);
    { const Scope inner(&lanes[0], "inner", 7); }
    { const Scope inner(&lanes[0], "inner", 7); }
  }
  { const Scope probe(&lanes[0], "probe", 9); }
  const std::vector<Span>& spans = lanes[0].spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[3].parent, -1);
  const auto totals = stageTotals(lanes);
  EXPECT_EQ(totals.at("inner").count, 2u);
  const double outerTotal = totals.at("outer").totalNanos;
  EXPECT_NEAR(totals.at("outer").selfNanos + totals.at("inner").totalNanos, outerTotal, 1e-6);
  // Excluded ops drop out of the totals.
  EXPECT_EQ(stageTotals(lanes, {9}).count("probe"), 0u);
}

TEST(SelfTime, InertScopeRecordsNothing) {
  const Scope scope(nullptr, "nothing", 1);
  SUCCEED();
}

TEST(Trace, WritesOneCompleteEventPerSpan) {
  std::vector<Lane> lanes(2);
  { const Scope a(&lanes[0], "a", 1); }
  { const Scope b(&lanes[1], "b", 2); }
  const std::string path = ::testing::TempDir() + "perfbench_trace.json";
  ASSERT_TRUE(writeChromeTrace(lanes, path));
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "[");
  EXPECT_NE(lines[1].find("\"name\":\"a\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"tid\":2"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CpuClock, CountsWorkButNotWaiting) {
  const Nanos slept = processCpuNanos();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const Nanos afterSleep = processCpuNanos();
  EXPECT_LT(afterSleep - slept, 20'000'000u);
  // Spinning does count, however busy the host (capped at 5 s of wall).
  const Nanos wallStart = nowNanos();
  while (processCpuNanos() - afterSleep < 10'000'000u && nowNanos() - wallStart < 5'000'000'000u) {
  }
  EXPECT_GE(processCpuNanos() - afterSleep, 10'000'000u);
}

TEST(CoreRotation, PinsOneCoreAtATimeAndRestoresTheMask) {
  cpu_set_t before;
  ASSERT_EQ(::sched_getaffinity(0, sizeof(before), &before), 0);
  {
    CoreRotation rotation;
    ASSERT_EQ(rotation.cores(), static_cast<std::size_t>(CPU_COUNT(&before)));
    if (rotation.cores() < 2) GTEST_SKIP() << "one allowed core: nothing to rotate over";
    for (std::size_t k = 0; k < rotation.cores(); ++k) {
      rotation.next();
      cpu_set_t now;
      ASSERT_EQ(::sched_getaffinity(0, sizeof(now), &now), 0);
      EXPECT_EQ(CPU_COUNT(&now), 1);
    }
  }
  cpu_set_t after;
  ASSERT_EQ(::sched_getaffinity(0, sizeof(after), &after), 0);
  EXPECT_TRUE(CPU_EQUAL(&before, &after));
}

TEST(Schedule, SameSeedSameSchedule) {
  EXPECT_EQ(poissonSchedule(42, 100.0, 500), poissonSchedule(42, 100.0, 500));
  EXPECT_NE(poissonSchedule(42, 100.0, 500), poissonSchedule(43, 100.0, 500));
}

TEST(Schedule, IncreasingAtTheRequestedRate) {
  const std::vector<double> due = poissonSchedule(7, 200.0, 20000);
  for (std::size_t i = 1; i < due.size(); ++i) ASSERT_GT(due[i], due[i - 1]);
  // 20000 exponential gaps: the mean rate is within a few percent.
  EXPECT_NEAR(static_cast<double>(due.size()) / due.back(), 200.0, 200.0 * 0.03);
}

}  // namespace
}  // namespace perfbench
