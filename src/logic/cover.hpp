// Cover: a multi-output sum-of-products (a list of Cubes with shared arity).
//
// This is the central logic representation of the library: PLA files parse
// into covers, the espresso-style minimizer rewrites covers, and the
// crossbar function matrix (xbar/function_matrix.hpp) is built from a cover.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "logic/cube.hpp"
#include "util/bits.hpp"

namespace mcx {

class Cover {
public:
  Cover() = default;
  Cover(std::size_t nin, std::size_t nout) : nin_(nin), nout_(nout) {}

  std::size_t nin() const { return nin_; }
  std::size_t nout() const { return nout_; }
  std::size_t size() const { return cubes_.size(); }
  bool empty() const { return cubes_.empty(); }

  const Cube& cube(std::size_t i) const { return cubes_[i]; }
  Cube& cube(std::size_t i) { return cubes_[i]; }
  const std::vector<Cube>& cubes() const { return cubes_; }
  std::vector<Cube>& cubes() { return cubes_; }

  /// Append a cube; its arity must match the cover's.
  void add(Cube c);
  void clear() { cubes_.clear(); }

  /// Total number of literals over all cubes.
  std::size_t literalCount() const;

  /// Evaluate all outputs on one input assignment (bit i = value of x_i).
  DynBits evaluate(const DynBits& input) const;

  /// The input parts of all cubes asserting output @p o.
  std::vector<Cube> projection(std::size_t o) const;

  /// Merge cubes with identical input parts by ORing their output parts,
  /// and drop cubes with empty inputs or empty output sets.
  void mergeDuplicateInputs();

  /// Remove any cube contained (inputs and outputs) in another single cube.
  void removeSingleCubeContained();

  /// PLA-body-style rendering, one cube per line.
  std::string toString() const;

  bool operator==(const Cover& o) const = default;

private:
  std::size_t nin_ = 0;
  std::size_t nout_ = 0;
  std::vector<Cube> cubes_;
};

/// Convenience: make a cube of @p cover's arity from a PLA-style pattern,
/// e.g. cube("1-0", "10") = x1 !x3 asserting output 1 of 2.
Cube makeCube(const std::string& inputPattern, const std::string& outputPattern);

}  // namespace mcx
