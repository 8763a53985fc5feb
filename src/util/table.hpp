// Console tables for experiment harnesses.
//
// Every bench binary prints the same rows/series the paper's figures report;
// `Table` renders them aligned for humans.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace poq::util {

/// Column-aligned text table with a header row.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Appends a row; must match the header's column count.
  void add_row(std::vector<std::string> row);

  /// Number of data rows.
  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }

  /// Render with column alignment and a separator under the header.
  void print(std::ostream& out) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace poq::util
