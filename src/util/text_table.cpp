#include "util/text_table.hpp"

#include <iomanip>
#include <sstream>

namespace mcx {

TextTable::TextTable(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void TextTable::addRow(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::toString() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      if (row[c].size() > width[c]) width[c] = row[c].size();

  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(width[c])) << row[c];
      if (c + 1 < row.size()) os << "  ";
    }
    os << '\n';
  };
  emit(headers_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < width.size(); ++c) total += width[c] + (c + 1 < width.size() ? 2 : 0);
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit(row);
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const TextTable& t) { return os << t.toString(); }

std::string TextTable::num(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string TextTable::percent(double ratio, int precision) {
  return num(ratio * 100.0, precision) + "%";
}

}  // namespace mcx
