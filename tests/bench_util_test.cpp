// The benchmarks' JSON writer (bench/bench_util.h): every document it
// renders parses as JSON, whatever the names and numbers in it.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "bench/bench_util.h"
#include "src/scope/json.h"

namespace amulet {
namespace {

TEST(BenchJsonTest, ControlCharactersAndNonFiniteNumbersStayValidJson) {
  BenchJson json("probe");
  json.Scalar("ratio", std::numeric_limits<double>::quiet_NaN());
  json.Scalar("label", std::string("tab\there \"quoted\"\n"));
  json.Row();
  json.Field("speedup", std::numeric_limits<double>::infinity());
  json.Field("cycles", -std::numeric_limits<double>::infinity());
  json.Field("mean", 2.5);
  json.Field("workload", std::string("bell\a"));

  const std::string text = json.Render();
  EXPECT_NE(text.find(R"("tab\u0009here \"quoted\"\n")"), std::string::npos) << text;
  EXPECT_NE(text.find(R"("bell\u0007")"), std::string::npos) << text;
  auto doc = ParseJson(text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString() << "\n" << text;
  EXPECT_EQ(doc->Field("bench")->str, "probe");
  EXPECT_EQ(doc->Field("ratio")->kind, JsonValue::kNull);
  const JsonValue* results = doc->Field("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->items.size(), 1u);
  const JsonValue& row = results->items[0];
  EXPECT_EQ(row.Field("speedup")->kind, JsonValue::kNull);
  EXPECT_EQ(row.Field("cycles")->kind, JsonValue::kNull);
  EXPECT_EQ(row.Field("mean")->number, 2.5);
}

}  // namespace
}  // namespace amulet
