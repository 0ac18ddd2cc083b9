#include <gtest/gtest.h>

#include <fstream>

#include "util/table_writer.h"

using namespace landau;

TEST(TableWriter, AlignsColumnsAndRendersCaption) {
  TableWriter t("my caption");
  t.header({"a", "long-column"});
  t.add_row().cell(1).cell("x");
  t.add_row().cell(12345).cell("yy");
  const auto s = t.str();
  EXPECT_NE(s.find("my caption"), std::string::npos);
  EXPECT_NE(s.find("long-column"), std::string::npos);
  EXPECT_NE(s.find("12345"), std::string::npos);
}

TEST(TableWriter, RowWidthMismatchThrows) {
  TableWriter t;
  t.header({"a", "b"});
  EXPECT_THROW(t.row({"only-one"}), landau::Error);
}

TEST(TableWriter, WritesCsv) {
  TableWriter t;
  t.header({"x", "y"});
  t.add_row().cell(1).cell(2.5, 1);
  const std::string path = "/tmp/landau_test_table.csv";
  t.write_csv(path);
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "x,y");
  std::getline(f, line);
  EXPECT_EQ(line, "1,2.5");
}

TEST(TableWriter, NumericFormattingPrecision) {
  TableWriter t;
  t.add_row().cell(3.14159, 2);
  EXPECT_NE(t.str().find("3.14"), std::string::npos);
  EXPECT_EQ(t.str().find("3.142"), std::string::npos);
}
