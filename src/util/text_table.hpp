// TextTable: aligned plain-text tables for the benchmark harness output
// (the "same rows the paper reports" requirement).
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace mcx {

class TextTable {
public:
  /// Create a table with the given column headers.
  explicit TextTable(std::vector<std::string> headers);

  /// Append one row; the row is padded / truncated to the header width.
  void addRow(std::vector<std::string> cells);

  std::size_t rowCount() const { return rows_.size(); }

  /// Render with column alignment and a header separator.
  std::string toString() const;
  friend std::ostream& operator<<(std::ostream& os, const TextTable& t);

  // Formatting helpers used throughout the bench binaries.
  static std::string num(double v, int precision = 3);
  static std::string percent(double ratio, int precision = 0);

private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace mcx
