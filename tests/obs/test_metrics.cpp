#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <limits>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/json.h"

namespace cellscope::obs {
namespace {

TEST(Counter, ConcurrentIncrementsSumExactly) {
  auto& counter =
      MetricsRegistry::instance().counter("test.counter.concurrent");
  counter.reset();
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kIncrements; ++i) counter.add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(Counter, AddWithDelta) {
  Counter c;
  c.add(5);
  c.add(7);
  EXPECT_EQ(c.value(), 12u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, TracksValueAndHighWatermark) {
  Gauge g;
  g.add(3);
  g.add(4);
  g.add(-5);
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(g.max_value(), 7);
  g.set(1);
  EXPECT_EQ(g.value(), 1);
  EXPECT_EQ(g.max_value(), 7);  // watermark survives set
}

TEST(Histogram, BucketBoundariesAreLessOrEqual) {
  Histogram h({1.0, 2.0, 4.0});
  // le-semantics: a value equal to a bound lands in that bound's bucket.
  h.observe(0.5);
  h.observe(1.0);
  h.observe(1.5);
  h.observe(2.0);
  h.observe(4.0);
  h.observe(5.0);  // above every bound -> overflow
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);  // 0.5, 1.0
  EXPECT_EQ(counts[1], 2u);  // 1.5, 2.0
  EXPECT_EQ(counts[2], 1u);  // 4.0
  EXPECT_EQ(counts[3], 1u);  // 5.0 overflow
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 14.0);
  EXPECT_DOUBLE_EQ(h.mean(), 14.0 / 6.0);
}

TEST(Histogram, ConcurrentObservationsSumExactly) {
  Histogram h({10.0, 100.0});
  constexpr int kThreads = 6;
  constexpr int kObservations = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kObservations; ++i) h.observe(1.0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(),
            static_cast<std::uint64_t>(kThreads) * kObservations);
  EXPECT_DOUBLE_EQ(h.sum(), static_cast<double>(kThreads) * kObservations);
}

TEST(Gauge, ConcurrentAddsKeepWatermarkAtLeastPeakSum) {
  // The watermark must be computed from the post-add value returned by
  // fetch_add, not from a separate load — with N adders and no removals
  // the final max must equal the exact total, regardless of interleaving.
  Gauge g;
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < kAdds; ++i) g.add(1);
    });
  }
  for (auto& t : threads) t.join();
  constexpr std::int64_t kTotal =
      static_cast<std::int64_t>(kThreads) * kAdds;
  EXPECT_EQ(g.value(), kTotal);
  EXPECT_EQ(g.max_value(), kTotal);
}

TEST(Histogram, QuantileInterpolatesWithinBucket) {
  Histogram h({10.0, 20.0, 40.0});
  for (int i = 0; i < 10; ++i) h.observe(5.0);    // bucket (0, 10]
  for (int i = 0; i < 10; ++i) h.observe(15.0);   // bucket (10, 20]
  // p50 = rank 10 of 20 -> exactly the upper edge of the first bucket.
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 10.0);
  // p75 = rank 15 -> halfway through the (10, 20] bucket.
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 15.0);
  // p100 -> the upper edge of the last occupied bucket.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 20.0);
}

TEST(Histogram, QuantileEdgeCases) {
  Histogram empty({1.0, 2.0});
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);  // no observations

  Histogram overflow_only({1.0, 2.0});
  overflow_only.observe(100.0);
  // Everything past the last bound clamps to the last bound: the
  // histogram cannot resolve values beyond its range.
  EXPECT_DOUBLE_EQ(overflow_only.quantile(0.99), 2.0);

  Histogram h({1.0, 2.0});
  h.observe(1.5);
  EXPECT_THROW(h.quantile(-0.1), Error);
  EXPECT_THROW(h.quantile(1.1), Error);
}

// Pins current quantile behavior on the degenerate shapes the snapshot
// run reports feed from (empty, single-sample, q=0, q=1) before the
// fault suite leans on p99 numbers: any estimator change must show up
// here, not as silent drift in crash-recovery reports.
TEST(Histogram, QuantilePinnedOnEmptyHistogram) {
  Histogram empty({10.0, 20.0});
  EXPECT_DOUBLE_EQ(empty.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(1.0), 0.0);
}

TEST(Histogram, QuantilePinnedOnSingleSample) {
  // One sample in an interior bucket: every q interpolates across that
  // bucket, so q=0 pins to its lower edge and q=1 to its upper edge.
  Histogram h({10.0, 20.0, 40.0});
  h.observe(15.0);  // lands in (10, 20]
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 15.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 20.0);

  // One sample in the first bucket interpolates from min(0, bound).
  Histogram first({10.0, 20.0});
  first.observe(5.0);
  EXPECT_DOUBLE_EQ(first.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(first.quantile(1.0), 10.0);

  // A negative first bound keeps the lower edge at the bound itself.
  Histogram negative({-5.0, 10.0});
  negative.observe(-7.0);
  EXPECT_DOUBLE_EQ(negative.quantile(0.0), -5.0);
  EXPECT_DOUBLE_EQ(negative.quantile(1.0), -5.0);  // bucket has zero width

  // A single overflow sample clamps to the largest bound at every q.
  Histogram overflow({10.0, 20.0});
  overflow.observe(99.0);
  EXPECT_DOUBLE_EQ(overflow.quantile(0.0), 20.0);
  EXPECT_DOUBLE_EQ(overflow.quantile(1.0), 20.0);
}

TEST(Histogram, QuantileExtremesPinnedOnPopulatedHistogram) {
  Histogram h({10.0, 20.0, 40.0});
  for (int i = 0; i < 4; ++i) h.observe(5.0);
  for (int i = 0; i < 4; ++i) h.observe(30.0);
  // q=0 pins to the lower edge of the first occupied bucket, q=1 to the
  // upper edge of the last occupied bucket.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 40.0);
}

TEST(Histogram, QuantileMatchesUniformFill) {
  // 100 observations spread evenly across (0, 100] in one bucket per
  // decade: percentile estimates should land on the decade boundaries.
  Histogram h({10, 20, 30, 40, 50, 60, 70, 80, 90, 100});
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  EXPECT_NEAR(h.quantile(0.50), 50.0, 1.0);
  EXPECT_NEAR(h.quantile(0.90), 90.0, 1.0);
  EXPECT_NEAR(h.quantile(0.99), 99.0, 1.0);
}

TEST(MetricsRegistry, SnapshotJsonIncludesPercentiles) {
  auto& registry = MetricsRegistry::instance();
  auto& h = registry.histogram("test.snapshot.pctl", {1.0, 10.0});
  h.observe(0.5);
  const auto json = registry.snapshot_json();
  const auto at = json.find("\"test.snapshot.pctl\"");
  ASSERT_NE(at, std::string::npos);
  EXPECT_NE(json.find("\"p50\":", at), std::string::npos);
  EXPECT_NE(json.find("\"p90\":", at), std::string::npos);
  EXPECT_NE(json.find("\"p99\":", at), std::string::npos);
}

TEST(MetricsRegistry, NonFiniteValuesSerializeAsNullAndStayParseable) {
  auto& registry = MetricsRegistry::instance();
  auto& h = registry.histogram("test.snapshot.nonfinite", {1.0, 10.0});
  h.observe(std::numeric_limits<double>::quiet_NaN());
  h.observe(std::numeric_limits<double>::infinity());
  const auto json = registry.snapshot_json();
  // A bare `nan`/`inf` token would make this throw — the whole /metrics.json
  // endpoint used to become unparseable the moment any histogram saw a
  // non-finite sample.
  const JsonValue doc = JsonValue::parse(json);
  const auto& hist = doc.at("histograms").at("test.snapshot.nonfinite");
  EXPECT_TRUE(hist.at("sum").is_null());
  EXPECT_TRUE(hist.at("p50").is_null() || hist.at("p50").is_number());
  // Prometheus exposition spells non-finite out instead (NaN/+Inf/-Inf).
  const auto prom = registry.snapshot_prometheus();
  const auto sum_at = prom.find("test_snapshot_nonfinite_sum");
  ASSERT_NE(sum_at, std::string::npos);
  EXPECT_NE(prom.find("NaN", sum_at), std::string::npos);
}

TEST(Histogram, RejectsUnsortedBounds) {
  EXPECT_THROW(Histogram({2.0, 1.0}), Error);
  EXPECT_THROW(Histogram({1.0, 1.0}), Error);
  EXPECT_THROW(Histogram({}), Error);
}

TEST(MetricsRegistry, SameNameReturnsSameMetric) {
  auto& registry = MetricsRegistry::instance();
  EXPECT_EQ(&registry.counter("test.registry.same"),
            &registry.counter("test.registry.same"));
  EXPECT_EQ(&registry.gauge("test.registry.same_gauge"),
            &registry.gauge("test.registry.same_gauge"));
  EXPECT_EQ(&registry.histogram("test.registry.same_hist"),
            &registry.histogram("test.registry.same_hist"));
}

TEST(MetricsRegistry, SnapshotJsonContainsRegisteredMetrics) {
  auto& registry = MetricsRegistry::instance();
  registry.counter("test.snapshot.counter").add(42);
  registry.gauge("test.snapshot.gauge").set(7);
  registry.histogram("test.snapshot.hist", {1.0, 10.0}).observe(0.5);

  const auto json = registry.snapshot_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test.snapshot.counter\":"), std::string::npos);
  EXPECT_NE(json.find("\"test.snapshot.gauge\":{\"value\":7"),
            std::string::npos);
  EXPECT_NE(json.find("\"test.snapshot.hist\":{\"count\":"),
            std::string::npos);
  EXPECT_NE(json.find("{\"le\":1,\"count\":1}"), std::string::npos);
}

TEST(Histogram, ObserveNMatchesRepeatedObserve) {
  Histogram repeated({1.0, 2.0, 4.0});
  for (int i = 0; i < 7; ++i) repeated.observe(1.5);
  Histogram batched({1.0, 2.0, 4.0});
  batched.observe_n(1.5, 7);
  EXPECT_EQ(batched.count(), repeated.count());
  EXPECT_DOUBLE_EQ(batched.sum(), repeated.sum());
  EXPECT_EQ(batched.bucket_counts(), repeated.bucket_counts());
}

TEST(Histogram, BatchFlushMatchesDirectObserve) {
  Histogram direct({1.0, 2.0, 4.0});
  Histogram via_batch({1.0, 2.0, 4.0});
  const double values[] = {0.5, 1.0, 1.5, 3.0, 9.0, 9.0};
  for (const double v : values) direct.observe(v);
  {
    HistogramBatch batch(via_batch);
    for (const double v : values) batch.observe(v);
    EXPECT_EQ(batch.pending(), 6u);
    EXPECT_EQ(via_batch.count(), 0u);  // nothing shared until flush
  }  // destructor flushes
  EXPECT_EQ(via_batch.count(), direct.count());
  EXPECT_DOUBLE_EQ(via_batch.sum(), direct.sum());
  EXPECT_EQ(via_batch.bucket_counts(), direct.bucket_counts());
}

TEST(Histogram, Pow2MinuteBucketAgreesWithBucketOf) {
  Histogram h(pow2_minute_buckets());
  for (std::uint64_t m : {0ull, 1ull, 2ull, 3ull, 4ull, 5ull, 63ull, 64ull,
                          65ull, 1000ull, 65536ull, 65537ull, 1000000ull}) {
    EXPECT_EQ(pow2_minute_bucket(m), h.bucket_of(static_cast<double>(m)))
        << "disagreement at " << m << " minutes";
  }
}

TEST(MetricsRegistry, SnapshotJsonOrderingIsSortedByName) {
  auto& registry = MetricsRegistry::instance();
  registry.counter("test.order.zz").add(1);
  registry.counter("test.order.aa").add(1);
  registry.counter("test.order.mm").add(1);
  const auto json = registry.snapshot_json();
  const auto aa = json.find("\"test.order.aa\"");
  const auto mm = json.find("\"test.order.mm\"");
  const auto zz = json.find("\"test.order.zz\"");
  ASSERT_NE(aa, std::string::npos);
  ASSERT_NE(mm, std::string::npos);
  ASSERT_NE(zz, std::string::npos);
  EXPECT_LT(aa, mm);
  EXPECT_LT(mm, zz);
}

TEST(MetricsRegistry, PrometheusSnapshotRendersEveryKind) {
  auto& registry = MetricsRegistry::instance();
  registry.counter("test.prom.counter").add(3);
  auto& gauge = registry.gauge("test.prom.gauge");
  gauge.reset();
  gauge.set(9);
  auto& hist = registry.histogram("test.prom.hist", {1.0, 10.0});
  hist.reset();
  hist.observe(0.5);
  hist.observe(100.0);

  const auto text = registry.snapshot_prometheus();
  // Dots sanitize to underscores; the exposition is line-oriented.
  EXPECT_NE(text.find("# TYPE test_prom_counter counter"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_counter 3\n"), std::string::npos);
  EXPECT_NE(text.find("test_prom_gauge 9\n"), std::string::npos);
  EXPECT_NE(text.find("test_prom_gauge_max 9\n"), std::string::npos);
  // Cumulative buckets: le="10" holds everything <= 10, +Inf everything.
  EXPECT_NE(text.find("test_prom_hist_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_hist_bucket{le=\"10\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_hist_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_hist_count 2\n"), std::string::npos);
}

TEST(MetricsRegistry, PrometheusSnapshotIsGloballySorted) {
  auto& registry = MetricsRegistry::instance();
  registry.counter("test.promsort.later").add(1);
  registry.gauge("test.promsort.earlier").set(1);
  const auto text = registry.snapshot_prometheus();
  const auto earlier = text.find("test_promsort_earlier");
  const auto later = text.find("test_promsort_later");
  ASSERT_NE(earlier, std::string::npos);
  ASSERT_NE(later, std::string::npos);
  // Sorted by exposed name across kinds, not grouped counters-then-gauges.
  EXPECT_LT(earlier, later);
  // Deterministic: two snapshots of unchanged metrics are identical.
  EXPECT_EQ(text, registry.snapshot_prometheus());
}

TEST(MetricsRegistry, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
}

TEST(MetricsRegistry, GoldenSnapshotJsonFields) {
  auto& registry = MetricsRegistry::instance();
  auto& counter = registry.counter("test.golden.counter");
  auto& gauge = registry.gauge("test.golden.gauge");
  auto& hist = registry.histogram("test.golden.hist", {1.0, 2.5, 1e4});
  counter.reset();
  gauge.reset();
  hist.reset();
  counter.add(12);
  gauge.set(9);
  gauge.add(-14);
  hist.observe(0.25);
  hist.observe(2.0);
  hist.observe(2.0);
  hist.observe(12345.678);
  const auto json = registry.snapshot_json();
  EXPECT_NE(json.find("\"test.golden.counter\":12"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"test.golden.gauge\":{\"value\":-5,\"max\":9}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"test.golden.hist\":{\"count\":4,\"sum\":12349.928,"
                      "\"p50\":1.75,\"p90\":10000,\"p99\":10000,\"buckets\":["
                      "{\"le\":1,\"count\":1},{\"le\":2.5,\"count\":2},"
                      "{\"le\":10000,\"count\":0}],\"overflow\":1}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"test.golden.counter\":12"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"test.golden.gauge\":{\"value\":-5,\"max\":9}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"test.golden.hist\":{\"count\":4,\"sum\":12349.928,"
                      "\"p50\":1.75,\"p90\":10000,\"p99\":10000,\"buckets\":["
                      "{\"le\":1,\"count\":1},{\"le\":2.5,\"count\":2},"
                      "{\"le\":10000,\"count\":0}],\"overflow\":1}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"test.golden.counter\":12"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"test.golden.gauge\":{\"value\":-5,\"max\":9}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"test.golden.hist\":{\"count\":4,\"sum\":12349.928,"
                      "\"p50\":1.75,\"p90\":10000,\"p99\":10000,\"buckets\":["
                      "{\"le\":1,\"count\":1},{\"le\":2.5,\"count\":2},"
                      "{\"le\":10000,\"count\":0}],\"overflow\":1}"),
            std::string::npos)
      << json;
}

}  // namespace
}  // namespace cellscope::obs
