#include "circuit/registry.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "api/driver.hpp"
#include "benchdata/registry.hpp"
#include "map/registry.hpp"
#include "util/error.hpp"

namespace mcx {
namespace {

TEST(CircuitRegistry, CoversEveryPaperBenchmark) {
  for (const BenchmarkInfo& info : paperBenchmarks()) {
    const CircuitPreset* preset = findCircuitPreset(info.name);
    ASSERT_NE(preset, nullptr) << info.name;
    EXPECT_EQ(preset->spec.source, CircuitSpec::Source::Registry);
    EXPECT_EQ(preset->spec.name, info.name);
    EXPECT_EQ(preset->spec.synth, CircuitSpec::Synth::None)
        << info.name << ": registry presets compile the source cover as built";
  }
}

TEST(CircuitRegistry, DerivedPresets) {
  ASSERT_NE(findCircuitPreset("rd53-min"), nullptr);
  ASSERT_NE(findCircuitPreset("sqrt8-min"), nullptr);
  ASSERT_NE(findCircuitPreset("majority7-min"), nullptr);
  ASSERT_NE(findCircuitPreset("fig5"), nullptr);
  EXPECT_EQ(findCircuitPreset("rd53-min")->spec.synth, CircuitSpec::Synth::Espresso);
  EXPECT_EQ(findCircuitPreset("fig5")->spec.source, CircuitSpec::Source::InlineSop);
  EXPECT_EQ(findCircuitPreset("bogus"), nullptr);
}

TEST(CircuitRegistry, MakeCircuitSpecResolvesPresetsAndSources) {
  EXPECT_EQ(makeCircuitSpec("rd53-min").canonical(),
            findCircuitPreset("rd53-min")->spec.canonical());
  EXPECT_EQ(makeCircuitSpec("  {\"circuit\": \"bw\"}").name, "bw");
  EXPECT_EQ(makeCircuitSpec("gen:parity4").source, CircuitSpec::Source::Generator);
  EXPECT_THROW(makeCircuitSpec("no-such-circuit"), ParseError);
}

TEST(CircuitRegistry, MistypedMemberErrorsNameOnlyTheMember) {
  // Circuit, mapper and scenario specs share the typed member accessors; a
  // circuit or mapper error must not be labelled as a scenario one.
  const auto parseMessage = [](const auto& parse) -> std::string {
    try {
      parse();
    } catch (const ParseError& e) {
      return e.what();
    }
    return "no ParseError";
  };
  for (const std::string& message :
       {parseMessage([] { makeCircuitSpec(R"({"circuit":"bw","label":5})"); }),
        parseMessage([] { makeMapper(R"({"mapper":5})"); })}) {
    EXPECT_EQ(message.find("scenario"), std::string::npos) << message;
    EXPECT_NE(message.find("must be a string"), std::string::npos) << message;
  }
}

TEST(CircuitRegistry, ListCircuitsPrintsEveryPreset) {
  std::ostringstream out;
  bench::listCircuits(out);
  const std::string listing = out.str();
  for (const CircuitPreset& preset : circuitPresets())
    EXPECT_NE(listing.find(preset.name + "  —  "), std::string::npos) << preset.name;
}

}  // namespace
}  // namespace mcx
