#include "obs/log.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "obs/metrics.h"

namespace cellscope::obs {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Saves and restores the global logger state around a test, with stderr
/// silenced so expected log lines don't pollute test output.
class LoggerGuard {
 public:
  LoggerGuard() : saved_level_(Logger::instance().level()) {
    Logger::instance().set_stderr(false);
  }
  ~LoggerGuard() {
    Logger::instance().close_file();
    Logger::instance().set_level(saved_level_);
    Logger::instance().set_stderr(true);
  }

 private:
  LogLevel saved_level_;
};

TEST(LogLevel, ParsesEveryName) {
  EXPECT_EQ(parse_log_level("trace"), LogLevel::kTrace);
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("info"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_THROW(parse_log_level("verbose"), InvalidArgument);
}

TEST(LogLevel, NamesRoundTrip) {
  for (int i = 0; i <= static_cast<int>(LogLevel::kOff); ++i) {
    const auto level = static_cast<LogLevel>(i);
    EXPECT_EQ(parse_log_level(log_level_name(level)), level);
  }
}

TEST(LogFormat, PlainValuesStayUnquoted) {
  EXPECT_EQ(escape_log_value("clustering"), "clustering");
  EXPECT_EQ(escape_log_value("123.5"), "123.5");
}

TEST(LogFormat, ValuesNeedingQuotesAreEscaped) {
  EXPECT_EQ(escape_log_value("a b"), "\"a b\"");
  EXPECT_EQ(escape_log_value(""), "\"\"");
  EXPECT_EQ(escape_log_value("k=v"), "\"k=v\"");
  EXPECT_EQ(escape_log_value("say \"hi\""), "\"say \\\"hi\\\"\"");
  EXPECT_EQ(escape_log_value("back\\slash"), "\"back\\\\slash\"");
  EXPECT_EQ(escape_log_value("two\nlines"), "\"two\\nlines\"");
}

TEST(LogFormat, ControlCharactersAreEscapedNotEmittedRaw) {
  // Regression: control characters other than \n/\r/\t used to pass
  // through the quoted form raw, producing lines no logfmt parser (or
  // line-oriented tool) could consume.
  // (split literals: "\x01b" would otherwise parse as the single byte
  // 0x1b — hex escapes are maximal-munch)
  const auto escaped = escape_log_value(std::string("a\x01" "b\x1f" "z"));
  for (const char c : escaped)
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u)
        << "raw control byte leaked into: " << escaped;
  EXPECT_EQ(escaped, "\"a\\u0001b\\u001fz\"");
}

TEST(LogFormat, EscapedValuesRoundTrip) {
  const std::string nasty[] = {
      "plain",
      "two words",
      "k=v",
      "say \"hi\"",
      "back\\slash",
      "two\nlines",
      "tab\there",
      "cr\rlf\n",
      std::string("nul\0inside", 10),
      "ctrl\x01\x02\x1f",
      "",
      "=",
      "\"",
      "trailing\\",
  };
  for (const auto& value : nasty) {
    EXPECT_EQ(unescape_log_value(escape_log_value(value)), value)
        << "failed round-trip for escaped form: " << escape_log_value(value);
  }
}

TEST(LogFormat, FullLinesRoundTripThroughParse) {
  const auto line = format_log_line(
      LogLevel::kInfo, "stage.done",
      {{"stage", "a b"},
       {"detail", "x=1\ny=\"2\""},
       {"weird", std::string("nul\0ctrl\x02", 9)},
       {"plain", "ok"}});
  const auto fields = parse_log_line(line);
  ASSERT_GE(fields.size(), 7u);  // ts, level, event + the four above
  auto value_of = [&](std::string_view key) -> std::string {
    for (const auto& f : fields)
      if (f.key == key) return f.value;
    return "<missing>";
  };
  EXPECT_EQ(value_of("level"), "info");
  EXPECT_EQ(value_of("event"), "stage.done");
  EXPECT_EQ(value_of("stage"), "a b");
  EXPECT_EQ(value_of("detail"), "x=1\ny=\"2\"");
  EXPECT_EQ(value_of("weird"), std::string("nul\0ctrl\x02", 9));
  EXPECT_EQ(value_of("plain"), "ok");
}

TEST(LogFormat, ParseHandlesUnquotedAndQuotedMix) {
  const auto fields = parse_log_line("a=1 b=\"x y\" c=z");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0].key, "a");
  EXPECT_EQ(fields[0].value, "1");
  EXPECT_EQ(fields[1].value, "x y");
  EXPECT_EQ(fields[2].value, "z");
}

TEST(LogFormat, LineContainsLevelEventAndFields) {
  const auto line = format_log_line(
      LogLevel::kInfo, "stage.done",
      {{"stage", "pipeline.vectorize"}, {"towers", 800}, {"note", "a b"}});
  EXPECT_NE(line.find("ts="), std::string::npos);
  EXPECT_NE(line.find(" level=info"), std::string::npos);
  EXPECT_NE(line.find(" event=stage.done"), std::string::npos);
  EXPECT_NE(line.find(" stage=pipeline.vectorize"), std::string::npos);
  EXPECT_NE(line.find(" towers=800"), std::string::npos);
  EXPECT_NE(line.find(" note=\"a b\""), std::string::npos);
}

TEST(LogFormat, DoubleFieldsUseCompactFormatting) {
  const auto line = format_log_line(LogLevel::kWarn, "x", {{"v", 1.5}});
  EXPECT_NE(line.find("v=1.5"), std::string::npos);
}

TEST(Logger, LevelFiltersRecordsBelowThreshold) {
  LoggerGuard guard;
  auto& logger = Logger::instance();
  const std::string path =
      testing::TempDir() + "/cellscope_log_filter_test.log";
  std::remove(path.c_str());
  logger.set_file(path);

  logger.set_level(LogLevel::kWarn);
  EXPECT_FALSE(logger.enabled(LogLevel::kInfo));
  EXPECT_TRUE(logger.enabled(LogLevel::kWarn));
  logger.log(LogLevel::kInfo, "filtered.out", {{"k", 1}});
  logger.log(LogLevel::kWarn, "kept", {{"k", 2}});
  logger.close_file();

  const auto contents = read_file(path);
  EXPECT_EQ(contents.find("filtered.out"), std::string::npos);
  EXPECT_NE(contents.find("event=kept"), std::string::npos);
  EXPECT_NE(contents.find("k=2"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Logger, OffDisablesEverything) {
  LoggerGuard guard;
  auto& logger = Logger::instance();
  logger.set_level(LogLevel::kOff);
  EXPECT_FALSE(logger.enabled(LogLevel::kError));
  EXPECT_FALSE(logger.enabled(LogLevel::kOff));
}

TEST(Logger, FileSinkAppendsAcrossReopens) {
  LoggerGuard guard;
  auto& logger = Logger::instance();
  const std::string path =
      testing::TempDir() + "/cellscope_log_append_test.log";
  std::remove(path.c_str());
  logger.set_level(LogLevel::kInfo);

  logger.set_file(path);
  logger.log(LogLevel::kInfo, "first");
  logger.close_file();
  logger.set_file(path);
  logger.log(LogLevel::kInfo, "second");
  logger.close_file();

  const auto contents = read_file(path);
  EXPECT_NE(contents.find("event=first"), std::string::npos);
  EXPECT_NE(contents.find("event=second"), std::string::npos);
  std::remove(path.c_str());
}

// Every ASCII byte through both escapers: the JSON escaper's mapping and
// the logfmt quoting rule on top of it. kEscaped[b] is the JSON string
// body for byte b.
TEST(LogFormat, GoldenEscapesForEveryAsciiByte) {
  std::vector<std::string> escaped;
  std::string all;
  for (int b = 0; b < 0x80; ++b) {
    const std::string one(1, static_cast<char>(b));
    all += one;
    escaped.push_back(json_escape(one));
    const bool quoted = b < 0x20 || b == ' ' || b == '"' || b == '=' ||
                        b == '\\';
    EXPECT_EQ(escape_log_value(one),
              quoted ? '"' + escaped.back() + '"' : escaped.back())
        << "byte " << b;
  }
  std::string joined;
  for (const auto& e : escaped) joined += e;
  EXPECT_EQ(joined,
            "\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007"
            "\\u0008\\t\\n\\u000b\\u000c\\r\\u000e\\u000f"
            "\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017"
            "\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f"
            " !\\\"#$%&'()*+,-./0123456789:;<=>?"
            "@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\\\]^_"
            "`abcdefghijklmnopqrstuvwxyz{|}~\x7F");
  EXPECT_EQ(json_escape(all), joined);
  EXPECT_EQ(escape_log_value(all), '"' + joined + '"');

  // Multi-byte UTF-8 passes through untouched.
  const std::string utf8 = "caf\xC3\xA9 \xE6\x97\xA5\xE6\x9C\xAC \xF0\x9F\x93\xB6";
  EXPECT_EQ(json_escape(utf8), utf8);
  EXPECT_EQ(escape_log_value(utf8), '"' + utf8 + '"');
  EXPECT_EQ(escape_log_value("\xC3\xA9"), "\xC3\xA9");
}

}  // namespace
}  // namespace cellscope::obs
