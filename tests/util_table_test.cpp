#include "util/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "util/error.hpp"

namespace poq::util {
namespace {

TEST(Table, PrintAlignsColumns) {
  Table table({"D", "overhead"});
  table.add_row({"1", "1.50"});
  table.add_row({"10", "123.45"});
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find(" D  overhead"), std::string::npos);
  EXPECT_NE(text.find("10    123.45"), std::string::npos);
}

TEST(Table, RejectsMismatchedRow) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only one"}), PreconditionError);
}

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(Table({}), PreconditionError);
}

TEST(Table, RowCount) {
  Table table({"x"});
  EXPECT_EQ(table.row_count(), 0u);
  table.add_row({"1"});
  table.add_row({"2"});
  EXPECT_EQ(table.row_count(), 2u);
}

}  // namespace
}  // namespace poq::util
