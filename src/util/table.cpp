#include "util/table.hpp"

#include <algorithm>
#include <ostream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace poq::util {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  require(!header_.empty(), "Table: header must not be empty");
}

void Table::add_row(std::vector<std::string> row) {
  require(row.size() == header_.size(), "Table: row width must match header");
  rows_.push_back(std::move(row));
}

void Table::print(std::ostream& out) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  const auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << (c == 0 ? "" : "  ") << pad_left(row[c], widths[c]);
    }
    out << '\n';
  };
  emit(header_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    total += widths[c] + (c == 0 ? 0 : 2);
  }
  out << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit(row);
}

}  // namespace poq::util
