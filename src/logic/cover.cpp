#include "logic/cover.hpp"

#include <algorithm>
#include <map>

#include "util/error.hpp"

namespace mcx {

void Cover::add(Cube c) {
  MCX_REQUIRE(c.nin() == nin_ && c.nout() == nout_, "Cover::add arity mismatch");
  cubes_.push_back(std::move(c));
}

std::size_t Cover::literalCount() const {
  std::size_t n = 0;
  for (const Cube& c : cubes_) n += c.literalCount();
  return n;
}

DynBits Cover::evaluate(const DynBits& input) const {
  DynBits out(nout_);
  for (const Cube& c : cubes_) {
    if (!c.coversMinterm(input)) continue;
    out |= c.outputBits();
  }
  return out;
}

std::vector<Cube> Cover::projection(std::size_t o) const {
  MCX_REQUIRE(o < nout_, "Cover::projection out of range");
  std::vector<Cube> result;
  for (const Cube& c : cubes_)
    if (c.out(o)) result.push_back(c);
  return result;
}

void Cover::mergeDuplicateInputs() {
  std::map<DynBits, std::size_t> seen;  // input bits -> index in merged
  std::vector<Cube> merged;
  merged.reserve(cubes_.size());
  for (Cube& c : cubes_) {
    if (c.inputEmpty() || (nout_ > 0 && c.outputBits().none())) continue;
    auto [it, inserted] = seen.emplace(c.inputBits(), merged.size());
    if (inserted) {
      merged.push_back(std::move(c));
    } else {
      merged[it->second].outputBits() |= c.outputBits();
    }
  }
  cubes_ = std::move(merged);
}

void Cover::removeSingleCubeContained() {
  std::vector<bool> dead(cubes_.size(), false);
  for (std::size_t i = 0; i < cubes_.size(); ++i) {
    if (dead[i]) continue;
    for (std::size_t j = 0; j < cubes_.size(); ++j) {
      if (i == j || dead[j]) continue;
      if (cubes_[j].contains(cubes_[i])) {
        // Tie-break identical cubes deterministically by keeping the lower
        // index.
        if (cubes_[i].contains(cubes_[j]) && i < j) continue;
        dead[i] = true;
        break;
      }
    }
  }
  std::vector<Cube> kept;
  kept.reserve(cubes_.size());
  for (std::size_t i = 0; i < cubes_.size(); ++i)
    if (!dead[i]) kept.push_back(std::move(cubes_[i]));
  cubes_ = std::move(kept);
}

std::string Cover::toString() const {
  std::string s;
  for (const Cube& c : cubes_) {
    s += c.toPlaString();
    s.push_back('\n');
  }
  return s;
}

Cube makeCube(const std::string& inputPattern, const std::string& outputPattern) {
  Cube c(inputPattern.size(), outputPattern.size());
  for (std::size_t i = 0; i < inputPattern.size(); ++i) {
    switch (inputPattern[i]) {
      case '0': c.setLit(i, Lit::Neg); break;
      case '1': c.setLit(i, Lit::Pos); break;
      case '-': case '2': c.setLit(i, Lit::DontCare); break;
      case '?': c.setLit(i, Lit::Empty); break;
      default: throw ParseError(std::string("bad cube input character '") + inputPattern[i] + "'");
    }
  }
  for (std::size_t o = 0; o < outputPattern.size(); ++o) {
    switch (outputPattern[o]) {
      case '0': break;
      case '1': c.setOut(o); break;
      default: throw ParseError(std::string("bad cube output character '") + outputPattern[o] + "'");
    }
  }
  return c;
}

}  // namespace mcx
