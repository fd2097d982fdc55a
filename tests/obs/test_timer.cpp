#include "obs/timer.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>

#include "obs/metrics.h"

namespace cellscope::obs {
namespace {

/// Restores trace state around a test.
class TraceGuard {
 public:
  TraceGuard() : was_enabled_(StageTrace::instance().enabled()) {
    StageTrace::instance().clear();
    StageTrace::instance().set_enabled(true);
  }
  ~TraceGuard() {
    StageTrace::instance().clear();
    StageTrace::instance().set_enabled(was_enabled_);
  }

 private:
  bool was_enabled_;
};

TEST(ScopedTimer, ElapsedIsMonotonicallyNonDecreasing) {
  ScopedTimer timer;
  double previous = timer.elapsed_ms();
  EXPECT_GE(previous, 0.0);
  for (int i = 0; i < 100; ++i) {
    const double current = timer.elapsed_ms();
    EXPECT_GE(current, previous);
    previous = current;
  }
}

TEST(ScopedTimer, ObservesIntoHistogramOnDestruction) {
  Histogram h({1e9});  // one giant bucket, everything lands in it
  {
    ScopedTimer timer(h);
    EXPECT_EQ(h.count(), 0u);  // nothing observed while alive
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.sum(), 0.0);
}

TEST(NowUs, AdvancesMonotonically) {
  const double a = now_us();
  const double b = now_us();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
}

TEST(StageTrace, RecordsCompletedSpans) {
  TraceGuard guard;
  auto& trace = StageTrace::instance();
  const auto token = trace.begin("pipeline.test_stage", "pipeline");
  EXPECT_NE(token, 0u);
  trace.end(token);

  const auto events = trace.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "pipeline.test_stage");
  EXPECT_EQ(events[0].category, "pipeline");
  EXPECT_GE(events[0].ts_us, 0.0);
  EXPECT_GE(events[0].dur_us, 0.0);
}

TEST(StageTrace, OpenSpansAreExcludedFromEvents) {
  TraceGuard guard;
  auto& trace = StageTrace::instance();
  const auto open = trace.begin("still.open", "test");
  const auto closed = trace.begin("closed", "test");
  trace.end(closed);
  const auto events = trace.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "closed");
  trace.end(open);
  EXPECT_EQ(trace.events().size(), 2u);
}

TEST(StageTrace, DisabledRecordingIsFree) {
  TraceGuard guard;
  auto& trace = StageTrace::instance();
  trace.set_enabled(false);
  EXPECT_EQ(trace.begin("ignored", "test"), 0u);
  trace.end(0);
  EXPECT_TRUE(trace.events().empty());
}

TEST(StageTrace, ChromeTraceJsonHasEventArray) {
  TraceGuard guard;
  auto& trace = StageTrace::instance();
  trace.end(trace.begin("pipeline.alpha", "pipeline"));
  const auto json = trace.chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"pipeline.alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"pipeline\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(StageTrace, WritesTraceFile) {
  TraceGuard guard;
  auto& trace = StageTrace::instance();
  trace.end(trace.begin("pipeline.file_test", "pipeline"));
  const std::string path = testing::TempDir() + "/cellscope_trace_test.json";
  std::remove(path.c_str());
  trace.write_chrome_trace(path);
  std::ifstream in(path);
  std::ostringstream contents;
  contents << in.rdbuf();
  EXPECT_NE(contents.str().find("pipeline.file_test"), std::string::npos);
  std::remove(path.c_str());
}

TEST(StageSpan, RecordsSpanAndHistogram) {
  TraceGuard guard;
  auto& histogram = MetricsRegistry::instance().histogram(
      "cellscope.spantest.stage_ms");
  const auto count_before = histogram.count();
  {
    StageSpan span("pipeline.span_test", "spantest", LogLevel::kDebug);
    span.annotate({"towers", 42});
  }
  const auto events = StageTrace::instance().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "pipeline.span_test");
  EXPECT_EQ(events[0].category, "spantest");
  EXPECT_EQ(histogram.count(), count_before + 1);
}

TEST(StageTrace, GoldenChromeTraceJson) {
  TraceGuard guard;
  auto& trace = StageTrace::instance();
  trace.record_complete("stream.apply", "stream", 12.5, 3.25,
                        "\"records\":7,\"shard\":1");
  trace.record_complete("q\"uote", "server", 1000.0005, 0.0);
  const std::string tid = std::to_string(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xFFFF);
  EXPECT_EQ(trace.chrome_trace_json(),
            "{\"traceEvents\":[{\"name\":\"stream.apply\",\"cat\":"
            "\"stream\",\"ph\":\"X\",\"ts\":12.500,\"dur\":3.250,"
            "\"pid\":1,\"tid\":" + tid +
            ",\"args\":{\"records\":7,\"shard\":1}},{\"name\":"
            "\"q\\\"uote\",\"cat\":\"server\",\"ph\":\"X\",\"ts\":"
            "1000.000,\"dur\":0.000,\"pid\":1,\"tid\":" + tid +
            "}],\"displayTimeUnit\":\"ms\"}");
}

}  // namespace
}  // namespace cellscope::obs
