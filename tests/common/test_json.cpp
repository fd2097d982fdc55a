#include "common/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.h"

namespace cellscope {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(JsonValue::parse("null").is_null());
  EXPECT_TRUE(JsonValue::parse("true").as_bool());
  EXPECT_FALSE(JsonValue::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(JsonValue::parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(JsonValue::parse("-2.5e3").as_number(), -2500.0);
  EXPECT_EQ(JsonValue::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesNestedContainers) {
  const auto v = JsonValue::parse(
      R"({"a": [1, 2, {"b": true}], "c": {"d": null}, "e": "x"})");
  ASSERT_TRUE(v.is_object());
  const auto& a = v.at("a").as_array();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a[0].as_number(), 1.0);
  EXPECT_TRUE(a[2].at("b").as_bool());
  EXPECT_TRUE(v.at("c").at("d").is_null());
  EXPECT_EQ(v.at("e").as_string(), "x");
  EXPECT_TRUE(v.contains("a"));
  EXPECT_FALSE(v.contains("zz"));
}

TEST(Json, ParsesStringEscapes) {
  EXPECT_EQ(JsonValue::parse(R"("a\"b\\c\nd\te")").as_string(),
            "a\"b\\c\nd\te");
  // \uXXXX escapes decode to UTF-8: ASCII, 2-byte, and a surrogate pair
  // for U+1F600 (4-byte).
  EXPECT_EQ(JsonValue::parse(R"("\u0041")").as_string(), "A");
  EXPECT_EQ(JsonValue::parse(R"("\u00e9")").as_string(), "\xc3\xa9");
  EXPECT_EQ(JsonValue::parse(R"("\ud83d\ude00")").as_string(),
            "\xf0\x9f\x98\x80");
  EXPECT_THROW(JsonValue::parse(R"("\ud83d")"), InvalidArgument);  // lone hi
  EXPECT_THROW(JsonValue::parse(R"("\uZZZZ")"), InvalidArgument);
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_THROW(JsonValue::parse(""), InvalidArgument);
  EXPECT_THROW(JsonValue::parse("{"), InvalidArgument);
  EXPECT_THROW(JsonValue::parse("[1,]"), InvalidArgument);
  EXPECT_THROW(JsonValue::parse("{\"a\" 1}"), InvalidArgument);
  EXPECT_THROW(JsonValue::parse("nul"), InvalidArgument);
  EXPECT_THROW(JsonValue::parse("1 2"), InvalidArgument);  // trailing token
  EXPECT_THROW(JsonValue::parse("\"unterminated"), InvalidArgument);
}

TEST(Json, RejectsNonJsonNumberForms) {
  // strtod accepts all of these; RFC 8259's number grammar accepts none.
  for (const char* text :
       {"nan", "-nan", "NaN", "inf", "-inf", "Infinity", "-Infinity",
        "0x10", "+1", ".5", "1.", "-", "01", "-01", "1e", "1e+", "1.e3",
        "--1", "[1,-nan]", "{\"a\":inf}"})
    EXPECT_THROW(JsonValue::parse(text), InvalidArgument) << text;
  // Literals that overflow to ±inf are rejected; underflow reads as 0.
  EXPECT_THROW(JsonValue::parse("1e999"), InvalidArgument);
  EXPECT_THROW(JsonValue::parse("-1e999"), InvalidArgument);
  EXPECT_THROW(JsonValue::parse("[0,1e400]"), InvalidArgument);
  EXPECT_EQ(JsonValue::parse("1e-999").as_number(), 0.0);
  EXPECT_EQ(JsonValue::parse("-1e-999").as_number(), 0.0);
  // Every grammar branch still parses, exactly.
  EXPECT_EQ(JsonValue::parse("0").as_number(), 0.0);
  EXPECT_EQ(JsonValue::parse("-0").as_number(), 0.0);
  EXPECT_TRUE(std::signbit(JsonValue::parse("-0").as_number()));
  EXPECT_EQ(JsonValue::parse("0.5").as_number(), 0.5);
  EXPECT_EQ(JsonValue::parse("-12.25E+2").as_number(), -1225.0);
  EXPECT_EQ(JsonValue::parse("7e-1").as_number(), 0.7);
  EXPECT_EQ(JsonValue::parse("4.9406564584124654e-324").as_number(),
            std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(JsonValue::parse("1.7976931348623157e308").as_number(),
            std::numeric_limits<double>::max());
  EXPECT_EQ(JsonValue::parse("[1,2.5,-3e0]").as_array()[2].as_number(),
            -3.0);
}

TEST(Json, BoundsNestingDepth) {
  // Moderate nesting still parses...
  const auto nested = JsonValue::parse(std::string(64, '[') +
                                       std::string(64, ']'));
  EXPECT_TRUE(nested.is_array());
  // ...but a 150 000-deep '[' run is a typed rejection, not a stack
  // overflow (the body POST /classify used to crash the daemon with).
  EXPECT_THROW(JsonValue::parse(std::string(150000, '[')), InvalidArgument);
  EXPECT_THROW(JsonValue::parse(std::string(150000, '{')), InvalidArgument);
}

TEST(Json, AccessorMismatchesThrow) {
  const auto v = JsonValue::parse("[1]");
  EXPECT_THROW(v.as_object(), InvalidArgument);
  EXPECT_THROW(v.as_number(), InvalidArgument);
  EXPECT_THROW(v.at("k"), InvalidArgument);
  const auto obj = JsonValue::parse("{\"a\": 1}");
  EXPECT_THROW(obj.at("missing"), InvalidArgument);
  EXPECT_DOUBLE_EQ(obj.number_or("a", -1.0), 1.0);
  EXPECT_DOUBLE_EQ(obj.number_or("missing", -1.0), -1.0);
}

TEST(Json, RoundTripsMetricSnapshotShape) {
  // The shape snapshot_json() emits: nested objects with numeric leaves
  // and bucket arrays.
  const auto v = JsonValue::parse(
      R"({"counters":{"a.b":3},"histograms":{"h":{"count":2,"p50":1.5,)"
      R"("buckets":[{"le":1,"count":0},{"le":10,"count":2}]}}})");
  EXPECT_DOUBLE_EQ(v.at("counters").at("a.b").as_number(), 3.0);
  const auto& h = v.at("histograms").at("h");
  EXPECT_DOUBLE_EQ(h.number_or("p50", 0.0), 1.5);
  EXPECT_EQ(h.at("buckets").as_array().size(), 2u);
}

}  // namespace
}  // namespace cellscope
