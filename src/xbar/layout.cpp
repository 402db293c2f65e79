#include "xbar/layout.hpp"

#include <sstream>

namespace mcx {

namespace {

// Built via append rather than operator+ chains: GCC 12's -Wrestrict fires
// a false positive (PR 105329) on inlined char* + std::string concatenation.
std::string numberedLabel(const char* prefix, std::size_t index) {
  std::string out(prefix);
  out += std::to_string(index);
  return out;
}

std::string columnLabel(const FunctionMatrix& fm, std::size_t c) {
  if (c < fm.nin()) return numberedLabel("x", c + 1);
  if (c < 2 * fm.nin()) return numberedLabel("!x", c - fm.nin() + 1);
  const std::size_t base = 2 * fm.nin();
  if (c < base + fm.numConnectionCols()) return numberedLabel("c", c - base + 1);
  const std::size_t obase = base + fm.numConnectionCols();
  if (c < obase + fm.nout()) return numberedLabel("O", c - obase + 1);
  return numberedLabel("!O", c - obase - fm.nout() + 1);
}

}  // namespace

std::string TwoLevelLayout::toAsciiDiagram() const {
  std::ostringstream os;
  constexpr int w = 4;
  os << std::string(12, ' ');
  for (std::size_t c = 0; c < fm.cols(); ++c) {
    std::string l = columnLabel(fm, c);
    l.resize(w - 1, ' ');
    os << l << ' ';
  }
  os << '\n';
  for (std::size_t r = 0; r < fm.rows(); ++r) {
    std::string label = r < fm.numProductRows()
                            ? numberedLabel("m", r + 1)
                            : numberedLabel("out", r - fm.numProductRows() + 1);
    label.resize(11, ' ');
    os << label << ' ';
    for (std::size_t c = 0; c < fm.cols(); ++c)
      os << (fm.bits().test(r, c) ? "#" : ".") << std::string(w - 1, ' ');
    os << '\n';
  }
  os << "rows=" << fm.rows() << " cols=" << fm.cols() << " area=" << fm.dims().area()
     << " switches=" << fm.usedSwitches() << '\n';
  return os.str();
}

TwoLevelLayout buildTwoLevelLayout(Cover cover) {
  TwoLevelLayout layout;
  layout.fm = buildFunctionMatrix(cover);
  layout.cover = std::move(cover);
  return layout;
}

}  // namespace mcx
