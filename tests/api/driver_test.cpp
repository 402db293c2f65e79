#include "api/driver.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "util/error.hpp"

namespace mcx::bench {
namespace {

Driver makeDriver() {
  Driver driver;
  driver.add({"beta", "the second suite", [](const std::vector<std::string>&) { return 0; }});
  driver.add({"alpha", "the first suite", [](const std::vector<std::string>&) { return 7; }});
  return driver;
}

TEST(BenchDriver, ListSuitesIsSortedWithSummaries) {
  const Driver driver = makeDriver();
  std::ostringstream out, err;
  EXPECT_EQ(driver.run({"--list-suites"}, out, err), 0);
  EXPECT_EQ(out.str(), "alpha  —  the first suite\nbeta  —  the second suite\n");
  EXPECT_TRUE(err.str().empty());
}

TEST(BenchDriver, ListMappersAndScenarios) {
  const Driver driver = makeDriver();
  std::ostringstream mappers, scenarios, err;
  EXPECT_EQ(driver.run({"--list-mappers"}, mappers, err), 0);
  EXPECT_NE(mappers.str().find("hba  —  "), std::string::npos);
  EXPECT_NE(mappers.str().find("fast-ea"), std::string::npos);
  EXPECT_EQ(driver.run({"--list-scenarios"}, scenarios, err), 0);
  EXPECT_NE(scenarios.str().find("paper-iid  —  "), std::string::npos);
  EXPECT_NE(scenarios.str().find("clustered"), std::string::npos);
}

TEST(BenchDriver, ListCircuits) {
  const Driver driver = makeDriver();
  std::ostringstream circuits, err;
  EXPECT_EQ(driver.run({"--list-circuits"}, circuits, err), 0);
  EXPECT_NE(circuits.str().find("bw  —  "), std::string::npos);
  EXPECT_NE(circuits.str().find("rd53-min"), std::string::npos);
  EXPECT_NE(circuits.str().find("fig5"), std::string::npos);
}

TEST(BenchDriver, DispatchesToSuiteWithRemainingArgs) {
  Driver driver;
  std::vector<std::string> seen;
  driver.add({"suite", "a suite", [&seen](const std::vector<std::string>& args) {
                seen = args;
                return 3;
              }});
  std::ostringstream out, err;
  EXPECT_EQ(driver.run({"suite", "--samples", "5"}, out, err), 3);
  EXPECT_EQ(seen, (std::vector<std::string>{"--samples", "5"}));
}

TEST(BenchDriver, UnknownSuiteListsAvailableOnes) {
  const Driver driver = makeDriver();
  std::ostringstream out, err;
  EXPECT_EQ(driver.run({"gamma"}, out, err), 2);
  EXPECT_NE(err.str().find("unknown suite \"gamma\""), std::string::npos);
  EXPECT_NE(err.str().find("alpha"), std::string::npos);
}

TEST(BenchDriver, NoArgsPrintsUsageAndFails) {
  const Driver driver = makeDriver();
  std::ostringstream out, err;
  EXPECT_EQ(driver.run({}, out, err), 2);
  EXPECT_NE(err.str().find("usage: mcx_bench"), std::string::npos);

  std::ostringstream helpOut, helpErr;
  EXPECT_EQ(driver.run({"--help"}, helpOut, helpErr), 0);
  EXPECT_NE(helpOut.str().find("usage: mcx_bench"), std::string::npos);
  EXPECT_NE(helpOut.str().find("alpha"), std::string::npos);
}

TEST(BenchDriver, UnknownFlagFails) {
  const Driver driver = makeDriver();
  std::ostringstream out, err;
  EXPECT_EQ(driver.run({"--list-sweets"}, out, err), 2);
  EXPECT_NE(err.str().find("unknown flag"), std::string::npos);
}

TEST(BenchDriver, SuiteExceptionIsReportedWithExitTwo) {
  Driver driver;
  driver.add({"thrower", "a failing suite", [](const std::vector<std::string>&) -> int {
                throw InvalidArgument("no such circuit");
              }});
  std::ostringstream out, err;
  EXPECT_EQ(driver.run({"thrower"}, out, err), 2);
  EXPECT_EQ(err.str(), "mcx_bench thrower: no such circuit\n");
  EXPECT_TRUE(out.str().empty());
}

TEST(BenchDriver, DuplicateSuiteNameRejected) {
  Driver driver = makeDriver();
  EXPECT_THROW(
      driver.add({"alpha", "again", [](const std::vector<std::string>&) { return 0; }}),
      Error);
}

TEST(BenchDriver, CommonOptionsPrecedence) {
  CommonOptions common;
  cli::ArgParser parser("suite", "test");
  common.addTo(parser);
  std::ostringstream out, err;
  ASSERT_EQ(parser.parse({"--samples", "7", "--json", "x.json"}, out, err),
            cli::ArgParser::Outcome::Ok);
  EXPECT_EQ(common.samplesOr(100), 7u);
  EXPECT_EQ(common.seedOr(42), 42u);
  EXPECT_EQ(common.threadsOr(), 0u);
  EXPECT_EQ(common.jsonOr("default.json"), "x.json");

  CommonOptions defaults;
  EXPECT_EQ(defaults.seedOr(42), 42u);
  EXPECT_EQ(defaults.jsonOr("default.json"), "default.json");
}

}  // namespace
}  // namespace mcx::bench
