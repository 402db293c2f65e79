// Test oracle: the i.i.d. samplers as first written. IidBernoulli's dense
// sweep with one double compare and one bounds-checked BitMatrix::set per
// crosspoint, and SparseIidBernoulli's placement on the half-buffered
// 32-bit stream with a double compare for the defect type. The library's
// samplers must reproduce their bits and leave the generator in the same
// state.
#pragma once

#include <cstdint>

#include "util/bit_matrix.hpp"
#include "util/rng.hpp"
#include "xbar/defects.hpp"

namespace mcx::reference {

/// The paper's per-crosspoint sweep: one uniform per crosspoint, row-major,
/// stuck-open below @p open, stuck-closed below @p open + @p closed.
inline void iidSample(std::size_t rows, std::size_t cols, double open, double closed, Rng& rng,
                      DefectMap& out) {
  out.reshape(rows, cols);
  BitMatrix& openBits = out.mutableOpenBits();
  BitMatrix& closedBits = out.mutableClosedBits();
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const double u = rng.uniform();
      if (u < open)
        openBits.set(r, c);
      else if (u < open + closed)
        closedBits.set(r, c);
    }
  }
}

/// The sparse sampler's placement below its dense cutoff: one Binomial draw
/// for the defect count, then per defect a (row, column) pair of exact
/// Lemire reductions of consecutive 32-bit halves, low half first, redrawn
/// while it lands on a defective site, and, when both rates are nonzero, a
/// whole-draw uniform for the type. Returns the number of Lemire rejections.
inline std::size_t sparseIidSample(std::size_t rows, std::size_t cols, double open,
                                   double closed, Rng& rng, DefectMap& out) {
  out.reshape(rows, cols);
  const double total = open + closed;
  const std::uint64_t count = rng.binomial(
      static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(cols), total);
  const bool mixed = closed > 0.0 && open > 0.0;
  std::size_t rejections = 0;
  std::uint64_t buffered = 0;
  unsigned bufferedHalves = 0;
  const auto next32 = [&]() -> std::uint32_t {
    if (bufferedHalves == 0) {
      buffered = rng();
      bufferedHalves = 2;
    }
    const auto v = static_cast<std::uint32_t>(buffered);
    buffered >>= 32;
    --bufferedHalves;
    return v;
  };
  const auto lemire32 = [&](std::uint64_t n) -> std::size_t {
    const auto reject = static_cast<std::uint32_t>((std::uint64_t{1} << 32) % n);
    for (;;) {
      const std::uint64_t m = static_cast<std::uint64_t>(next32()) * n;
      if (static_cast<std::uint32_t>(m) >= reject) return static_cast<std::size_t>(m >> 32);
      ++rejections;
    }
  };
  for (std::uint64_t d = 0; d < count; ++d) {
    for (;;) {
      const std::size_t r = lemire32(rows);
      const std::size_t c = lemire32(cols);
      if (out.type(r, c) != DefectType::None) continue;
      DefectType t = DefectType::StuckOpen;
      if (open <= 0.0)
        t = DefectType::StuckClosed;
      else if (mixed && rng.uniform() < closed / total)
        t = DefectType::StuckClosed;
      out.setType(r, c, t);
      break;
    }
  }
  return rejections;
}

}  // namespace mcx::reference
