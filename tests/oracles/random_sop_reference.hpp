// Test oracle: randomSop as first written. Each draw is checked against
// every accepted cube through Cube::contains (or Cube::operator== once the
// irredundancy requirement relaxes), one cube at a time. The library's
// flat-word scan must accept the same cubes and leave the generator in the
// same state.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>

#include "logic/cover.hpp"
#include "logic/generators.hpp"
#include "util/rng.hpp"

namespace mcx::reference {

inline Cover randomSop(const RandomSopOptions& opts, Rng& rng) {
  const double litTarget = std::clamp(opts.literalsPerProduct, 1.0, double(opts.nin));
  std::size_t products = opts.products;
  if (opts.nin < 12) {
    std::size_t space = 1;
    for (std::size_t i = 0; i < opts.nin; ++i) space *= 3;
    products = std::min(products, space - 1);
  }
  Cover cover(opts.nin, opts.nout);
  std::size_t guard = 0;
  const std::size_t relaxAfter = products * 50 + 500;
  while (cover.size() < products) {
    const bool requireIrredundant = opts.irredundant && guard < relaxAfter;
    if (++guard >= products * 400 + 4000) break;
    Cube c(opts.nin, opts.nout);
    const double cubeLitTarget =
        rng.bernoulli(opts.heavyLiteralFraction) ? double(opts.nin) : litTarget;
    std::size_t lits = 0;
    for (std::size_t v = 0; v < opts.nin; ++v) {
      if (rng.bernoulli(cubeLitTarget / double(opts.nin))) {
        c.setLit(v, rng.bernoulli(0.5) ? Lit::Pos : Lit::Neg);
        ++lits;
      }
    }
    if (lits == 0) {
      const auto v = static_cast<std::size_t>(rng.uniformInt(0, opts.nin - 1));
      c.setLit(v, rng.bernoulli(0.5) ? Lit::Pos : Lit::Neg);
    }
    double outTarget = std::clamp(opts.outputsPerProduct, 1.0, double(opts.nout));
    if (rng.bernoulli(opts.heavyOutputFraction))
      outTarget = std::clamp(opts.heavyOutputsPerProduct, 1.0, double(opts.nout));
    for (std::size_t o = 0; o < opts.nout; ++o)
      if (rng.bernoulli(outTarget / double(opts.nout))) c.setOut(o);
    if (c.outputBits().none())
      c.setOut(static_cast<std::size_t>(rng.uniformInt(0, opts.nout - 1)));

    bool rejected = false;
    for (const Cube& d : cover.cubes()) {
      if (requireIrredundant ? (d.contains(c) || c.contains(d)) : d == c) {
        rejected = true;
        break;
      }
    }
    if (rejected) continue;
    cover.add(std::move(c));
  }
  return cover;
}

}  // namespace mcx::reference
