#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "util/csv.hpp"

namespace rdsim::util {
namespace {

TEST(CsvWriter, WritesHeaderAndRows) {
  std::ostringstream os;
  CsvWriter w{os};
  w.write_row({"a", "b"});
  w.write_row({"1", "2"});
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(CsvWriter, QuotesSpecialCharacters) {
  std::ostringstream os;
  CsvWriter w{os};
  w.write_row({"has,comma", "has\"quote", "plain", "line\nbreak"});
  EXPECT_EQ(os.str(), "\"has,comma\",\"has\"\"quote\",plain,\"line\nbreak\"\n");
}

TEST(CsvWriter, FluentFields) {
  std::ostringstream os;
  CsvWriter w{os};
  w.field("x").field(1.5).field(static_cast<std::int64_t>(-7));
  w.end_row();
  EXPECT_EQ(os.str(), "x,1.5,-7\n");
}

TEST(CsvTable, ParsesSimpleDocument) {
  const auto t = CsvTable::parse("a,b,c\n1,2,3\n4,5,6\n");
  ASSERT_EQ(t.header().size(), 3u);
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_EQ(t.column("b"), 1);
  EXPECT_EQ(t.column("missing"), -1);
  EXPECT_DOUBLE_EQ(parse_number<double>(t.row(0)[2]).value(), 3.0);
  EXPECT_DOUBLE_EQ(parse_number<double>(t.row(1)[0]).value(), 4.0);
}

TEST(CsvTable, ParsesQuotedCells) {
  const auto t = CsvTable::parse("name,value\n\"x,y\",\"say \"\"hi\"\"\"\n");
  ASSERT_EQ(t.row_count(), 1u);
  EXPECT_EQ(t.row(0)[0], "x,y");
  EXPECT_EQ(t.row(0)[1], "say \"hi\"");
}

TEST(CsvTable, HandlesCrLfAndMissingTrailingNewline) {
  const auto t = CsvTable::parse("a,b\r\n1,2\r\n3,4");
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_DOUBLE_EQ(parse_number<double>(t.row(1)[1]).value(), 4.0);
}

TEST(CsvRoundTrip, WriterOutputParsesBack) {
  std::ostringstream os;
  CsvWriter w{os};
  w.write_row({"t", "label"});
  w.field(1.25).field("alpha,beta");
  w.end_row();
  w.field(2.5).field("plain");
  w.end_row();
  const auto t = CsvTable::parse(os.str());
  ASSERT_EQ(t.row_count(), 2u);
  EXPECT_DOUBLE_EQ(parse_number<double>(t.row(0)[0]).value(), 1.25);
  EXPECT_EQ(t.row(0)[1], "alpha,beta");
  EXPECT_EQ(t.row(1)[1], "plain");
}

TEST(FormatNumber, CompactRepresentation) {
  EXPECT_EQ(format_number(3.0), "3");
  EXPECT_EQ(format_number(-42.0), "-42");
  EXPECT_EQ(format_number(1.5), "1.5");
  EXPECT_EQ(format_number(0.125), "0.125");
  EXPECT_EQ(format_number(std::nan("")), "nan");
  EXPECT_EQ(format_number(std::numeric_limits<double>::infinity()), "inf");
}

}  // namespace
}  // namespace rdsim::util
