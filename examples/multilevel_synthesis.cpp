// Multi-level synthesis on structured vs unstructured functions.
//
// Demonstrates when the paper's multi-level design wins: a structured
// function (product-of-sums, the t481-like case) collapses to a handful of
// NAND gates, while a random SOP of the same product count does not factor
// and the multi-level connection columns outweigh the savings. Also shows
// the dual (complement) optimization and the fan-in-bound tradeoff.
#include <iostream>

#include "benchdata/synthetic.hpp"
#include "circuit/cache.hpp"
#include "logic/espresso.hpp"
#include "logic/isop.hpp"
#include "logic/generators.hpp"
#include "netlist/nand_mapper.hpp"
#include "util/text_table.hpp"
#include "xbar/area_model.hpp"

int main() {
  using namespace mcx;

  TextTable table({"function", "I", "O", "P", "two-level", "gates", "multi-level", "winner"});
  auto addRow = [&table](const std::string& name, const Cover& cover) {
    const NandNetwork net = mapToNand(cover);
    const std::size_t two = twoLevelDims(cover).area();
    const std::size_t multi = multiLevelDims(net).area();
    table.addRow({name, std::to_string(cover.nin()), std::to_string(cover.nout()),
                  std::to_string(cover.size()), std::to_string(two),
                  std::to_string(net.gateCount()), std::to_string(multi),
                  multi < two ? "multi-level" : "two-level"});
  };

  // Structured: the t481-like product-of-sums stand-in.
  addRow("t481 stand-in", compileCircuit("t481")->cover);

  // Unstructured: a random SOP with the same shape.
  Rng rng(2718);
  RandomSopOptions random;
  random.nin = 16;
  random.nout = 1;
  random.products = 256;
  random.literalsPerProduct = 4.0;
  addRow("random SOP, same shape", randomSop(random, rng));

  // The paper's Fig. 5 example.
  addRow("fig5 example", compileCircuit("fig5")->cover);

  // Parity: the classic two-level worst case.
  addRow("parity-8", espressoMinimize(isopCover(parityFunction(8))));

  std::cout << "Two-level vs multi-level crossbar area:\n" << table << "\n";

  // Dual optimization on a generated benchmark.
  const Cover sqrt8on = espressoMinimize(isopCover(sqrtFunction(8)));
  const Cover sqrt8off = espressoMinimize(isopCover(sqrtFunction(8).complemented()));
  std::cout << "Dual optimization (sqrt8): original P = " << sqrt8on.size()
            << " (area " << twoLevelDims(sqrt8on).area() << "), complement P = "
            << sqrt8off.size() << " (area " << twoLevelDims(sqrt8off).area()
            << ") -> implement " << (twoLevelDims(sqrt8off).area() < twoLevelDims(sqrt8on).area()
                                         ? "the complement (as the paper does)"
                                         : "the original")
            << "\n\n";

  // Fan-in bound sweep on the structured function.
  const Cover structured = productOfSumsCover(16, {4, 4, 4, 4});
  TextTable fanin({"max fan-in", "gates", "levels", "multi-level area"});
  for (const std::size_t k : {std::size_t{2}, std::size_t{3}, std::size_t{4}, std::size_t{8},
                              std::size_t{0}}) {
    NandMapOptions opts;
    opts.maxFanin = k;
    const NandNetwork net = mapToNand(structured, opts);
    fanin.addRow({k == 0 ? "unbounded" : std::to_string(k), std::to_string(net.gateCount()),
                  std::to_string(net.levelCount()),
                  std::to_string(multiLevelDims(net).area())});
  }
  std::cout << "Fan-in bound tradeoff (t481-like function):\n" << fanin;
  return 0;
}
