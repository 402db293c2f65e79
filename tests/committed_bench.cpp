#include "committed_bench.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#ifndef MCX_REPO_ROOT
#error "MCX_REPO_ROOT must point at the repository root (set by CMake)"
#endif

namespace mcx::committed {

SpecValue load(const std::string& file) {
  std::ifstream in(std::string(MCX_REPO_ROOT) + "/" + file);
  EXPECT_TRUE(in.good()) << "committed " << file << " not found";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parseSpec(buffer.str());
}

const std::vector<SpecValue>& cells(const SpecValue& doc) {
  static const std::vector<SpecValue> none;
  const SpecValue* found = doc.find("cells");
  EXPECT_TRUE(found != nullptr && found->isArray()) << "document has no \"cells\" array";
  return found != nullptr ? found->array : none;
}

const SpecValue& declaration(const SpecValue& cell) {
  static const SpecValue none;
  const SpecValue* found = cell.find("declaration");
  EXPECT_NE(found, nullptr) << "cell without a declaration";
  return found != nullptr ? *found : none;
}

std::size_t successes(const SpecValue& cell) {
  const SpecValue* result = cell.find("result");
  EXPECT_NE(result, nullptr) << "cell without a result";
  return result != nullptr ? static_cast<std::size_t>(result->numberOr("successes", -1)) : 0;
}

ExperimentBuilder replay(const SpecValue& cell) {
  const SpecValue& decl = declaration(cell);
  const auto count = [&decl](const char* key) {
    return static_cast<std::size_t>(decl.numberOr(key, 0));
  };
  ExperimentBuilder builder;
  builder.circuit(decl.stringOr("circuit", ""))
      .multiLevel(decl.stringOr("realize", "") == "multilevel")
      .mapper(decl.stringOr("mapper", ""))
      .spares({count("spare_rows"), count("spare_input_pairs"), count("spare_output_pairs")})
      .samples(count("samples"))
      .seed(static_cast<std::uint64_t>(decl.numberOr("seed", 0)))
      .threads(1);
  const std::string scenario = decl.stringOr("scenario", "");
  const SpecValue* rate = decl.find("rate");
  if (rate == nullptr || rate->kind != SpecValue::Kind::Number)
    builder.scenario(scenario);  // a fixed JSON model spec
  else if (scenario == "legacy")
    builder.legacyRates(rate->number);
  else
    builder.scenario(scenario, rate->number);
  return builder;
}

const SpecValue* find(const SpecValue& doc, const std::string& circuit,
                      const std::string& mapper, const std::string& scenario) {
  for (const SpecValue& cell : cells(doc)) {
    const SpecValue& decl = declaration(cell);
    if (decl.stringOr("circuit", "") == circuit && decl.stringOr("mapper", "") == mapper &&
        decl.stringOr("scenario", "") == scenario)
      return &cell;
  }
  return nullptr;
}

}  // namespace mcx::committed
