#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "util/error.hpp"

namespace stellaris {
namespace {

TEST(Table, CsvBasics) {
  Table t({"a", "b"});
  t.row().add("x").add(1.5, 1);
  t.row().add(std::size_t{7}).add("y");
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "a,b\nx,1.5\n7,y\n");
}

TEST(Table, CsvEscapesCommasAndQuotes) {
  Table t({"c"});
  t.row().add("has,comma");
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "c\n\"has,comma\"\n");

  Table q({"c"});
  q.row().add("say \"hi\"");
  std::ostringstream os2;
  q.write_csv(os2);
  EXPECT_EQ(os2.str(), "c\n\"say \"\"hi\"\"\"\n");
}

TEST(Table, PrettyAlignsColumns) {
  Table t({"name", "v"});
  t.row().add("long-name").add("1");
  std::ostringstream os;
  t.write_pretty(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("| name      | v |"), std::string::npos);
  EXPECT_NE(s.find("| long-name | 1 |"), std::string::npos);
}

TEST(Table, AddWithoutRowThrows) {
  Table t({"a"});
  EXPECT_THROW(t.add("x"), Error);
}

TEST(Table, OverfullRowThrows) {
  Table t({"a"});
  t.row().add("1");
  EXPECT_THROW(t.add("2"), Error);
}

TEST(Table, IncompletePreviousRowThrows) {
  Table t({"a", "b"});
  t.row().add("1");
  EXPECT_THROW(t.row(), Error);
}

TEST(Table, EmptyColumnsThrows) { EXPECT_THROW(Table({}), Error); }

TEST(Table, NumericFormatting) {
  Table t({"x"});
  t.row().add(3.14159, 2);
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "x\n3.14\n");
}

}  // namespace
}  // namespace stellaris
