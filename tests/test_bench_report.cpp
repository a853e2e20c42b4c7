// Tests for the bench reports' JSON writer (bench/bench_report.h): the
// exact bytes of a small document, non-finite numbers as null, and exit 1
// when the file cannot be opened or fully written.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "bench_report.h"

namespace nb::bench {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(JsonWriter, WritesTheDocumentByteForByte) {
  const std::string path = testing::TempDir() + "json_writer_doc.json";
  JsonWriter w(path);
  w.str("schema", "nb-test-v1");
  w.boolean("quick", true);
  w.str("quote", "say \"hi\" \\ bye");
  w.object("headline");
  w.num("ms", 1.23456);
  w.num("diff", 0.000123456, "%.3g");
  w.integer("bytes", -42);
  w.row("inner");
  w.num("rate", 2.5, "%.2f");
  w.boolean("ok", false);
  w.end();
  w.end();
  w.array("threads", /*one_line=*/true);
  w.integer(nullptr, 1);
  w.integer(nullptr, 4);
  w.end();
  w.array("rows");
  for (const int64_t batch : {1, 8}) {
    w.row();
    w.integer("batch", batch);
    w.str("graph", "g");
    w.end();
  }
  w.end();
  w.array("empty");
  w.end();
  w.finish();
  EXPECT_EQ(read_file(path),
            "{\n"
            "  \"schema\": \"nb-test-v1\",\n"
            "  \"quick\": true,\n"
            "  \"quote\": \"say \\\"hi\\\" \\\\ bye\",\n"
            "  \"headline\": {\n"
            "    \"ms\": 1.2346,\n"
            "    \"diff\": 0.000123,\n"
            "    \"bytes\": -42,\n"
            "    \"inner\": {\"rate\": 2.50, \"ok\": false}\n"
            "  },\n"
            "  \"threads\": [1, 4],\n"
            "  \"rows\": [\n"
            "    {\"batch\": 1, \"graph\": \"g\"},\n"
            "    {\"batch\": 8, \"graph\": \"g\"}\n"
            "  ],\n"
            "  \"empty\": [\n"
            "  ]\n"
            "}\n");
}

TEST(JsonWriter, NonFiniteNumbersAreNull) {
  const std::string path = testing::TempDir() + "json_writer_null.json";
  JsonWriter w(path);
  w.row("r");
  w.num("nan", std::nan(""));
  w.num("inf", std::numeric_limits<double>::infinity(), "%.3g");
  w.num("ninf", -std::numeric_limits<double>::infinity());
  w.num("zero", 0.0, "%.3g");
  w.end();
  w.finish();
  EXPECT_EQ(read_file(path),
            "{\n"
            "  \"r\": {\"nan\": null, \"inf\": null, \"ninf\": null, "
            "\"zero\": 0}\n"
            "}\n");
}

TEST(JsonWriterDeathTest, ExitsOneWhenTheFileCannotBeOpened) {
  EXPECT_EXIT(JsonWriter("/nonexistent-dir/report.json"),
              testing::ExitedWithCode(1), "cannot open");
}

TEST(JsonWriterDeathTest, ExitsOneWhenTheFileCannotBeWritten) {
  if (!std::ifstream("/dev/full").good()) GTEST_SKIP() << "no /dev/full";
  EXPECT_EXIT(
      {
        JsonWriter w("/dev/full");
        w.str("schema", "nb-test-v1");
        w.finish();
      },
      testing::ExitedWithCode(1), "cannot write");
}

}  // namespace
}  // namespace nb::bench
