#include "common/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

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

TEST(JsonWriter, PlacesSeparatorsAtEveryNestingLevel) {
  JsonWriter w;
  w.begin_object().key("a").begin_array().end_array();
  w.key("b").begin_object().end_object();
  w.key("c").begin_array().integer(1).begin_array().integer(-2).null();
  w.end_array().boolean(true).begin_object().key("d").boolean(false);
  w.end_object().end_array().key("e").raw("{\"pre\":[0]}").end_object();
  EXPECT_EQ(w.take(),
            "{\"a\":[],\"b\":{},\"c\":[1,[-2,null],true,{\"d\":false}],"
            "\"e\":{\"pre\":[0]}}");
}

TEST(JsonWriter, EscapesKeysAndStrings) {
  JsonWriter w;
  w.begin_object().key("k\"\n").string("v\\\t\x01\xC3\xA9").end_object();
  EXPECT_EQ(w.take(), "{\"k\\\"\\n\":\"v\\\\\\t\\u0001\xC3\xA9\"}");
}

TEST(JsonWriter, PrintsEachNumberStyle) {
  const auto print = [](double v, JsonNumber style) {
    return JsonWriter().number(v, style).take();
  };
  EXPECT_EQ(print(0.1, JsonNumber::kRoundTrip), "0.10000000000000001");
  EXPECT_EQ(print(0.1, JsonNumber::kCompact), "0.1");
  EXPECT_EQ(print(0.1, JsonNumber::kFixed6), "0.100000");
  EXPECT_EQ(print(0.1, JsonNumber::kFixed3), "0.100");
  EXPECT_EQ(print(1234567.8, JsonNumber::kCompact), "1234567.8");
  EXPECT_EQ(print(1e10, JsonNumber::kCompact), "1e+10");
  EXPECT_EQ(print(-0.0, JsonNumber::kRoundTrip), "-0");
  EXPECT_EQ(print(2.5e-7, JsonNumber::kFixed6), "0.000000");
  // Fixed notation prints every integer digit, however many.
  EXPECT_EQ(print(1e30, JsonNumber::kFixed6),
            "1000000000000000019884624838656.000000");
  for (const JsonNumber style : {JsonNumber::kRoundTrip, JsonNumber::kCompact,
                                 JsonNumber::kFixed6, JsonNumber::kFixed3}) {
    EXPECT_EQ(print(std::numeric_limits<double>::quiet_NaN(), style), "null");
    EXPECT_EQ(print(std::numeric_limits<double>::infinity(), style), "null");
    EXPECT_EQ(print(-std::numeric_limits<double>::infinity(), style), "null");
  }
  constexpr double kMax = std::numeric_limits<double>::max();
  EXPECT_EQ(print(kMax, JsonNumber::kRoundTrip), "1.7976931348623157e+308");
  EXPECT_EQ(print(kMax, JsonNumber::kCompact), "1.79769313e+308");
  EXPECT_EQ(print(kMax, JsonNumber::kFixed6).size(), 309u + 7u);
  EXPECT_EQ(print(-kMax, JsonNumber::kFixed3).size(), 1u + 309u + 4u);
}

TEST(JsonWriter, PrintsIntegersOfEveryWidth) {
  JsonWriter w;
  w.begin_array().integer(std::numeric_limits<std::int64_t>::min());
  w.integer(std::numeric_limits<std::uint64_t>::max());
  w.integer(std::uint32_t{7}).integer(-1).end_array();
  EXPECT_EQ(w.take(),
            "[-9223372036854775808,18446744073709551615,7,-1]");
}

TEST(JsonFile, WritesDocumentAndNewline) {
  const std::string path = ::testing::TempDir() + "json_file_test.json";
  write_json_file(path, "{\"a\":1}");
  std::FILE* file = std::fopen(path.c_str(), "r");
  ASSERT_NE(file, nullptr);
  char buf[16] = {};
  const std::size_t n = std::fread(buf, 1, sizeof(buf), file);
  std::fclose(file);
  std::remove(path.c_str());
  EXPECT_EQ(std::string(buf, n), "{\"a\":1}\n");
  EXPECT_THROW(write_json_file("/nonexistent_dir_zz/x.json", "{}"), IoError);
}

}  // namespace
}  // namespace cellscope
