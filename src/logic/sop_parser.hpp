// Tiny sum-of-products expression parser for examples and tests.
//
// Grammar (whitespace-insensitive between tokens):
//   expr    := product ('+' product)*
//   product := literal+                        (implicit AND; '*' optional)
//   literal := ['!' | '~'] var | var ['\'']
//   var     := 'x' digits                      (1-based index)
//
// Example: "x1 + x2 + x3 + x4 + x5 x6 x7 x8"  (Fig. 3 of the paper).
#pragma once

#include <string>

#include "logic/cover.hpp"

namespace mcx {

/// Parse a single-output SOP over variables x1..x@p nin. If @p nin is 0 the
/// arity is inferred from the largest variable index used. Throws
/// mcx::ParseError on a syntax error, mcx::InvalidArgument when a variable
/// exceeds a nonzero @p nin.
Cover parseSop(const std::string& text, std::size_t nin = 0);

}  // namespace mcx
