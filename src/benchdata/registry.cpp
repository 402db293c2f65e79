#include "benchdata/registry.hpp"

#include "benchdata/synthetic.hpp"
#include "util/error.hpp"

namespace mcx {

namespace {

struct Recipe {
  BenchmarkInfo info;
  double literalsPerProduct = 4.0;   // synthetic stand-ins only
  double outputsPerProduct = 1.0;
  SyntheticTails tails;
  std::vector<std::size_t> groups;   // structure-seeded stand-ins only
};

std::vector<Recipe> makeRecipes() {
  std::vector<Recipe> r;
  auto add = [&r](BenchmarkInfo info, double litPP = 4.0, double outPP = 1.0,
                  std::vector<std::size_t> groups = {}, SyntheticTails tails = {}) {
    Recipe rec;
    rec.info = std::move(info);
    rec.literalsPerProduct = litPP;
    rec.outputsPerProduct = outPP;
    rec.tails = tails;
    rec.groups = std::move(groups);
    r.push_back(std::move(rec));
  };

  using Src = BenchmarkSource;
  // Each row is a BenchmarkInfo in field order; its last field is the
  // generator id, set on the generated rows only.
  // ---- Table II circuits (paper order) ----------------------------------
  add({"rd53", 5, 3, 31, Src::Generated,
       "weight function, generated exactly; P measured by our minimizer",
       544, 0.33, 0.98, 0.98, false, true, true, "weight5"});
  add({"squar5", 5, 8, 25, Src::Synthetic, "stand-in with paper (I,O,P)",
       858, 0.16, 1.00, 1.00, false, false, true, ""},
      3.3, 1.5);
  add({"bw", 5, 28, 22, Src::Synthetic,
       "stand-in; paper Table II prints O=8/area 330, Table I area 3300 implies O=28 "
       "(MCNC bw is 5-in/28-out); we use O=28",
       3300, 0.12, 1.00, 1.00, false, true, true, ""},
      4.5, 11.0);
  add({"inc", 7, 9, 30, Src::Synthetic, "stand-in with paper (I,O,P)",
       1248, 0.17, 1.00, 1.00, false, false, true, ""},
      4.0, 2.5);
  add({"misex1", 8, 7, 12, Src::Synthetic, "stand-in with paper (I,O,P)",
       570, 0.19, 1.00, 1.00, false, true, true, ""},
      5.0, 2.9);
  add({"sqrt8", 8, 4, 29, Src::Generated,
       "integer sqrt, generated exactly; paper prints I=7 but its areas imply I=8; "
       "Table II uses the dual (complement), area 792",
       792, 0.21, 1.00, 1.00, true, true, true, "sqrt8"});
  add({"sao2", 10, 4, 58, Src::Synthetic, "stand-in with paper (I,O,P)",
       1736, 0.29, 0.94, 0.97, false, false, true, ""},
      7.3, 1.2);
  add({"rd73", 7, 3, 127, Src::Generated,
       "weight function, generated exactly; P measured by our minimizer",
       2600, 0.34, 0.78, 0.92, false, false, true, "weight7"});
  add({"clip", 9, 5, 120, Src::Synthetic,
       "stand-in with paper (I,O,P); 40% minterm-dense products reproduce the paper's "
       "sub-100% success at the same inclusion ratio",
       3500, 0.23, 0.76, 0.79, false, false, true, ""},
      2.5, 1.3, {}, {0.40, 0.0, 0.0});
  add({"rd84", 8, 4, 255, Src::Generated,
       "weight function, generated exactly; P measured by our minimizer",
       6216, 0.33, 0.82, 0.89, false, true, true, "weight8"});
  add({"ex1010", 10, 10, 284, Src::Synthetic, "stand-in with paper (I,O,P)",
       11760, 0.23, 1.00, 1.00, false, false, true, ""},
      7.4, 2.0);
  add({"table3", 14, 14, 175, Src::Synthetic, "stand-in with paper (I,O,P)",
       10584, 0.25, 1.00, 1.00, false, false, true, ""},
      12.0, 3.0);
  add({"misex3c", 14, 14, 197, Src::Synthetic,
       "stand-in with paper (I,O,P); paper area 11856 vs formula (197+14)(56)=11816",
       11856, 0.13, 1.00, 1.00, false, false, true, ""},
      6.0, 1.7);
  add({"exp5", 8, 63, 74, Src::Synthetic,
       "stand-in with paper (I,O,P); 15% of products share ~26 of 63 outputs, the "
       "wide-row tail that drives the paper's 65% success",
       19454, 0.10, 0.65, 0.80, false, false, true, ""},
      7.5, 12.0, {}, {0.0, 0.15, 26.0});
  add({"apex4", 9, 19, 436, Src::Synthetic,
       "stand-in with paper (I,O,P); literal density 8.3/9 — pure-minterm rows would "
       "make 10%-defective optimum crossbars infeasible (both rails of a variable dead "
       "kills a row for every product), which the real apex4 avoids",
       25480, 0.21, 1.00, 1.00, false, false, true, ""},
      8.3, 3.9);
  add({"alu4", 14, 8, 575, Src::Synthetic, "stand-in with paper (I,O,P)",
       25652, 0.19, 1.00, 1.00, false, false, true, ""},
      7.0, 1.45);

  // ---- Table I extras ----------------------------------------------------
  add({"con1", 7, 2, 9, Src::Synthetic,
       "stand-in; P=9 derived from Table I area 198 = (9+2)(14+4)",
       198, std::nullopt, std::nullopt, std::nullopt, false, true, false, ""},
      4.0, 1.2);
  add({"b12", 15, 9, 43, Src::Synthetic,
       "stand-in; P=43 derived from Table I area 2496 = (43+9)(30+18)",
       2496, std::nullopt, std::nullopt, std::nullopt, false, true, false, ""},
      8.0, 1.5);
  add({"t481", 16, 1, 256, Src::StructureSeeded,
       "product-of-sums stand-in (4x4x4x4); paper's t481 has P=481 — a random SOP "
       "would lose the published multi-level advantage, structure is preserved instead",
       std::nullopt, std::nullopt, std::nullopt, std::nullopt, false, true, false, ""},
      0.0, 0.0, {4, 4, 4, 4});
  add({"cordic", 23, 2, 1024, Src::StructureSeeded,
       "product-of-sums stand-in (4^5 over 20 of 23 vars, duplicated to 2 outputs); "
       "paper's cordic has P=914",
       std::nullopt, std::nullopt, std::nullopt, std::nullopt, false, true, false, ""},
      0.0, 0.0, {4, 4, 4, 4, 4});
  return r;
}

const std::vector<Recipe>& recipes() {
  static const std::vector<Recipe> r = makeRecipes();
  return r;
}

const Recipe& findRecipe(const std::string& name) {
  for (const Recipe& r : recipes())
    if (r.info.name == name) return r;
  throw InvalidArgument("unknown benchmark: " + name);
}

}  // namespace

const std::vector<BenchmarkInfo>& paperBenchmarks() {
  static const std::vector<BenchmarkInfo> infos = [] {
    std::vector<BenchmarkInfo> v;
    for (const Recipe& r : recipes()) v.push_back(r.info);
    return v;
  }();
  return infos;
}

const BenchmarkInfo& findBenchmark(const std::string& name) { return findRecipe(name).info; }

Cover standInCover(const std::string& name) {
  const Recipe& r = findRecipe(name);
  switch (r.info.source) {
    case BenchmarkSource::Generated:
      throw InvalidArgument("benchmark " + name + " is generated (\"" + r.info.generator +
                            "\"), not a stand-in");
    case BenchmarkSource::Synthetic:
      return syntheticCover(r.info.name, r.info.inputs, r.info.outputs, r.info.products,
                            r.literalsPerProduct, r.outputsPerProduct, r.tails);
    case BenchmarkSource::StructureSeeded: {
      Cover single = productOfSumsCover(r.info.inputs, r.groups);
      if (r.info.outputs == 1) return single;
      // Multi-output structure-seeded circuits replicate the function with a
      // rotated variable assignment per output.
      Cover multi(r.info.inputs, r.info.outputs);
      for (std::size_t o = 0; o < r.info.outputs; ++o) {
        for (const Cube& c : single.cubes()) {
          Cube mc(r.info.inputs, r.info.outputs);
          for (std::size_t v = 0; v < r.info.inputs; ++v)
            mc.setLit((v + o) % r.info.inputs, c.lit(v));
          mc.setOut(o);
          multi.add(std::move(mc));
        }
      }
      multi.mergeDuplicateInputs();
      return multi;
    }
  }
  throw InvalidArgument("bad benchmark source");
}

}  // namespace mcx
