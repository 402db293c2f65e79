// Test oracle: exhaustive assignment, the reference the Munkres tests are
// checked against.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "assign/munkres.hpp"
#include "util/error.hpp"

namespace mcx {

/// Exhaustive min-cost assignment (rows <= cols <= 10). Exponential.
inline AssignmentResult bruteForceAssign(const CostMatrix& cost) {
  const std::size_t n = cost.rows();
  const std::size_t m = cost.cols();
  MCX_REQUIRE(n <= m, "bruteForceAssign: requires rows <= cols");
  MCX_REQUIRE(m <= 10, "bruteForceAssign: limited to 10 columns");

  std::vector<std::size_t> perm(m);
  std::iota(perm.begin(), perm.end(), 0u);

  AssignmentResult best;
  best.cost = std::numeric_limits<std::int64_t>::max();
  do {
    std::int64_t c = 0;
    for (std::size_t i = 0; i < n; ++i) c += cost.at(i, perm[i]);
    if (c < best.cost) {
      best.cost = c;
      best.assignment.assign(perm.begin(), perm.begin() + static_cast<std::ptrdiff_t>(n));
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

}  // namespace mcx
