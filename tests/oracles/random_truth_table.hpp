// Test input generator: random truth tables.
#pragma once

#include <cstddef>

#include "logic/truth_table.hpp"
#include "util/rng.hpp"

namespace mcx {

/// Random truth table with ON density @p onesDensity per output.
inline TruthTable randomTruthTable(std::size_t nin, std::size_t nout, double onesDensity,
                                   Rng& rng) {
  TruthTable tt(nin, nout);
  for (std::size_t o = 0; o < nout; ++o)
    for (std::size_t m = 0; m < tt.numMinterms(); ++m)
      if (rng.bernoulli(onesDensity)) tt.set(o, m);
  return tt;
}

}  // namespace mcx
