// Tests for the util library: argument parsing, table/CSV rendering.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "util/argparse.h"
#include "util/table.h"

namespace nb::util {
namespace {

TEST(ArgParser, DefaultsSurviveEmptyParse) {
  ArgParser p("prog");
  p.add_int("epochs", 10, "training epochs");
  p.add_double("lr", 0.1, "learning rate");
  p.add_string("model", "mbv2-tiny", "model name");
  p.add_flag("verbose", false, "chatty output");
  ASSERT_TRUE(p.parse({}));
  EXPECT_EQ(p.get_int("epochs"), 10);
  EXPECT_DOUBLE_EQ(p.get_double("lr"), 0.1);
  EXPECT_EQ(p.get_string("model"), "mbv2-tiny");
  EXPECT_FALSE(p.get_flag("verbose"));
  EXPECT_FALSE(p.provided("epochs"));
}

TEST(ArgParser, EqualsAndSpaceForms) {
  ArgParser p("prog");
  p.add_int("epochs", 1, "");
  p.add_double("lr", 0.0, "");
  p.add_string("model", "", "");
  ASSERT_TRUE(p.parse({"--epochs=7", "--lr", "0.25", "--model=mcunet"}));
  EXPECT_EQ(p.get_int("epochs"), 7);
  EXPECT_DOUBLE_EQ(p.get_double("lr"), 0.25);
  EXPECT_EQ(p.get_string("model"), "mcunet");
  EXPECT_TRUE(p.provided("epochs"));
}

TEST(ArgParser, BareFlagMeansTrue) {
  ArgParser p("prog");
  p.add_flag("verify", false, "");
  ASSERT_TRUE(p.parse({"--verify"}));
  EXPECT_TRUE(p.get_flag("verify"));
}

TEST(ArgParser, ExplicitFlagValues) {
  ArgParser p("prog");
  p.add_flag("verify", true, "");
  ASSERT_TRUE(p.parse({"--verify=false"}));
  EXPECT_FALSE(p.get_flag("verify"));
  ArgParser q("prog");
  q.add_flag("verify", false, "");
  ASSERT_TRUE(q.parse({"--verify=1"}));
  EXPECT_TRUE(q.get_flag("verify"));
}

TEST(ArgParser, UnknownOptionThrows) {
  ArgParser p("prog");
  p.add_int("epochs", 1, "");
  EXPECT_THROW(p.parse({"--epoch=3"}), std::runtime_error);
}

TEST(ArgParser, MalformedNumbersThrow) {
  ArgParser p("prog");
  p.add_int("epochs", 1, "");
  p.add_double("lr", 0.1, "");
  EXPECT_THROW(p.parse({"--epochs=ten"}), std::runtime_error);
  EXPECT_THROW(p.parse({"--lr=fast"}), std::runtime_error);
  EXPECT_THROW(p.parse({"--epochs=3x"}), std::runtime_error);
}

TEST(ArgParser, MissingValueThrows) {
  ArgParser p("prog");
  p.add_int("epochs", 1, "");
  EXPECT_THROW(p.parse({"--epochs"}), std::runtime_error);
}

TEST(ArgParser, WrongTypeAccessThrows) {
  ArgParser p("prog");
  p.add_int("epochs", 1, "");
  EXPECT_THROW(p.get_flag("epochs"), std::runtime_error);
  EXPECT_THROW(p.get_string("nope"), std::runtime_error);
}

TEST(ArgParser, DuplicateDeclarationThrows) {
  ArgParser p("prog");
  p.add_int("epochs", 1, "");
  EXPECT_THROW(p.add_flag("epochs", false, ""), std::runtime_error);
}

TEST(ArgParser, HelpReturnsFalseAndListsOptions) {
  ArgParser p("prog", "does things");
  p.add_int("epochs", 1, "training epochs");
  EXPECT_FALSE(p.parse({"--help"}));
  const std::string usage = p.usage();
  EXPECT_NE(usage.find("--epochs"), std::string::npos);
  EXPECT_NE(usage.find("training epochs"), std::string::npos);
}

TEST(TableFormat, FixedAndCount) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(-0.5, 1), "-0.5");
  EXPECT_EQ(format_count(0), "0");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(1000), "1,000");
  EXPECT_EQ(format_count(1234567), "1,234,567");
  EXPECT_EQ(format_count(-1234567), "-1,234,567");
}

TEST(TableFormat, CsvEscaping) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Table, RenderAlignsColumns) {
  Table t({"name", "acc"});
  t.add_row({"vanilla", "51.2"});
  t.add_row({"netbooster", "53.7"});
  const std::string text = t.render();
  // Both data rows start at column 0 and the accuracy column is aligned.
  const size_t pos_v = text.find("vanilla");
  const size_t pos_n = text.find("netbooster");
  ASSERT_NE(pos_v, std::string::npos);
  ASSERT_NE(pos_n, std::string::npos);
  const size_t acc_v = text.find("51.2");
  const size_t acc_n = text.find("53.7");
  const size_t col_v = acc_v - text.rfind('\n', acc_v) - 1;
  const size_t col_n = acc_n - text.rfind('\n', acc_n) - 1;
  EXPECT_EQ(col_v, col_n);
}

TEST(Table, RowArityMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::runtime_error);
}

TEST(Table, CsvRoundTripSkipsSeparators) {
  Table t({"a", "b"});
  t.add_row({"1", "x,y"});
  t.add_separator();
  t.add_row({"2", "z"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,\"x,y\"\n2,z\n");
}

TEST(Table, WriteCsvCreatesFile) {
  Table t({"h"});
  t.add_row({"v"});
  const std::string path = ::testing::TempDir() + "nb_table_test.csv";
  ASSERT_TRUE(t.write_csv(path));
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "h");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nb::util
