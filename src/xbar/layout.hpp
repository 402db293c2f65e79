// TwoLevelLayout: a cover bound to its crossbar realization (Fig. 3 of the
// paper) — the function matrix plus the semantic information needed by the
// simulator and the pretty printer.
#pragma once

#include <string>

#include "logic/cover.hpp"
#include "xbar/function_matrix.hpp"

namespace mcx {

struct TwoLevelLayout {
  Cover cover;        ///< product rows of the FM, in row order
  FunctionMatrix fm;  ///< required-switch pattern

  CrossbarDims dims() const { return fm.dims(); }

  /// ASCII rendering in the style of Fig. 3: column header with x / !x / O /
  /// !O labels, '#' for an active switch, '.' for a disabled one.
  std::string toAsciiDiagram() const;
};

/// Build the layout of a cover (choosing the cover as-is; minimize first if
/// a minimal crossbar is desired).
TwoLevelLayout buildTwoLevelLayout(Cover cover);

}  // namespace mcx
