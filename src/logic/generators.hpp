// Function generators: random SOPs (the paper's Fig. 6 workload) and the
// mathematically defined MCNC circuits (rd53/rd73/rd84 weight functions,
// sqrt8) plus classic stress functions (parity, majority, adders).
#pragma once

#include <cstddef>

#include "logic/cover.hpp"
#include "logic/truth_table.hpp"
#include "util/rng.hpp"

namespace mcx {

struct RandomSopOptions {
  std::size_t nin = 8;
  std::size_t nout = 1;
  std::size_t products = 10;
  /// Expected literals per product (clamped to [1, nin]).
  double literalsPerProduct = 3.0;
  /// Expected outputs asserted per product (clamped to [1, nout]); controls
  /// product sharing across outputs (high for bw/exp5-like circuits).
  double outputsPerProduct = 1.0;
  /// Fraction of products drawn as full minterms (every variable a literal);
  /// models the dense-row tail of arithmetic benchmarks like clip.
  double heavyLiteralFraction = 0.0;
  /// Fraction of products drawn with @ref heavyOutputsPerProduct expected
  /// outputs; models the high-sharing tail of circuits like exp5.
  double heavyOutputFraction = 0.0;
  double heavyOutputsPerProduct = 0.0;
  /// Ensure no product is single-cube contained in another.
  bool irredundant = true;
};

/// Random multi-output SOP cover; deterministic given the Rng state. The
/// cover has exactly opts.products cubes except at saturated small aritys
/// where fewer distinct cubes are reachable (best effort, never empty).
Cover randomSop(const RandomSopOptions& opts, Rng& rng);

/// Weight function family (rd53, rd73, rd84): @p n inputs, ceil(log2(n+1))
/// outputs; output word = binary encoding of the input popcount.
TruthTable weightFunction(std::size_t n);

/// Integer square root: @p bits inputs, ceil(bits/2) outputs;
/// out = floor(sqrt(in)).
TruthTable sqrtFunction(std::size_t bits);

/// XOR of n inputs (worst case for two-level synthesis: 2^(n-1) products).
TruthTable parityFunction(std::size_t n);

/// Majority of n inputs (n odd recommended).
TruthTable majorityFunction(std::size_t n);

/// Ripple-carry adder: two @p bits words in, bits+1 outputs (sum, carry).
TruthTable adderFunction(std::size_t bits);

/// Binarized neural-network layer: @p nin binary inputs, @p nout sign
/// neurons. Neuron o fires iff sum_i w[o][i] * (2*x_i - 1) > 0, with
/// weights w in {-1, +1} drawn deterministically from (nin, nout) — the
/// same id always names the same function. The error-tolerant workload
/// axis: a few wrong minterms degrade classification accuracy gracefully
/// instead of breaking correctness outright.
TruthTable nnLayerFunction(std::size_t nin, std::size_t nout);

}  // namespace mcx
