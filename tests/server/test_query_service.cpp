// Socket-free endpoint layer of the query daemon: routing, the RCU model
// swap, and response bodies pinned against the underlying stream/model
// APIs — including bit-identical doubles (the server serializes with
// %.17g, so a parsed response must equal the in-process computation
// exactly).
#include "server/query_service.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <numbers>
#include <string>
#include <vector>

#include "analysis/component_analysis.h"
#include "analysis/freq_features.h"
#include "common/error.h"
#include "common/json.h"
#include "common/time_grid.h"
#include "mapred/thread_pool.h"
#include "stream/ingestor.h"
#include "stream/online_classifier.h"
#include "stream/tower_window.h"

namespace cellscope::server {
namespace {

constexpr std::size_t kDay = TimeGrid::kSlotsPerDay;

std::uint64_t office_bytes(std::size_t slot) {
  const double phase =
      2.0 * std::numbers::pi * static_cast<double>(slot % kDay) / kDay;
  return static_cast<std::uint64_t>(2000.0 + 1500.0 * std::sin(phase));
}

std::uint64_t resident_bytes(std::size_t slot) {
  const double phase =
      2.0 * std::numbers::pi * static_cast<double>(slot % kDay) / kDay;
  return static_cast<std::uint64_t>(2000.0 - 1500.0 * std::sin(phase));
}

std::uint64_t half_day_bytes(std::size_t slot) {
  const double phase =
      4.0 * std::numbers::pi * static_cast<double>(slot % kDay) / kDay;
  return static_cast<std::uint64_t>(2000.0 + 1200.0 * std::sin(phase));
}

std::uint64_t evening_bytes(std::size_t slot) {
  const double phase =
      2.0 * std::numbers::pi * static_cast<double>(slot % kDay) / kDay;
  return static_cast<std::uint64_t>(2000.0 + 800.0 * std::cos(phase) +
                                    300.0 * std::sin(2.0 * phase));
}

std::vector<double> profile_week(std::uint64_t (*profile)(std::size_t)) {
  TowerWindow window;
  for (std::size_t slot = 0; slot < TimeGrid::kSlots; ++slot)
    window.add(slot * TimeGrid::kSlotMinutes, profile(slot));
  return window.folded_week();
}

std::string week_body(const std::vector<double>& week) {
  std::string body = "[";
  for (std::size_t i = 0; i < week.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", week[i]);
    if (i > 0) body += ',';
    body += buf;
  }
  return body + "]";
}

ModelSnapshot synthetic_model() {
  ModelSnapshot model;
  for (const auto profile : {office_bytes, resident_bytes})
    model.centroids.push_back(profile_week(profile));
  model.regions = {FunctionalRegion::kOffice, FunctionalRegion::kResident};
  model.populations = {3, 10};
  model.has_primaries = false;
  return model;
}

/// synthetic_model() plus four primary components, so /classify and
/// classify() take the convex-decomposition path.
ModelSnapshot model_with_primaries() {
  ModelSnapshot model = synthetic_model();
  std::uint64_t (*const profiles[4])(std::size_t) = {
      resident_bytes, half_day_bytes, office_bytes, evening_bytes};
  for (std::size_t r = 0; r < 4; ++r)
    model.primary_features[r] =
        compute_week_freq_features(profile_week(profiles[r])).qp_feature();
  model.has_primaries = true;
  return model;
}

HttpRequest get_request(std::string path, std::string query = "") {
  HttpRequest request;
  request.method = "GET";
  request.path = std::move(path);
  request.query = std::move(query);
  return request;
}

HttpRequest post_request(std::string path, std::string body) {
  HttpRequest request;
  request.method = "POST";
  request.path = std::move(path);
  request.body = std::move(body);
  return request;
}

class QueryServiceTest : public ::testing::Test {
 protected:
  // Tower 1: full office grid. Tower 2: full resident grid. Tower 3:
  // 10 slots (cold start, too short to forecast). Tower 4: 200 slots
  // (warm enough for both class and forecast).
  void SetUp() override {
    feed_tower(1, office_bytes, TimeGrid::kSlots);
    feed_tower(2, resident_bytes, TimeGrid::kSlots);
    feed_tower(3, office_bytes, 10);
    feed_tower(4, office_bytes, 200);
    ingestor.drain(pool);
  }

  void feed_tower(std::uint32_t tower_id,
                  std::uint64_t (*profile)(std::size_t),
                  std::size_t n_slots) {
    std::vector<TrafficLog> logs;
    logs.reserve(n_slots);
    for (std::size_t slot = 0; slot < n_slots; ++slot) {
      TrafficLog log;
      log.user_id = slot;
      log.tower_id = tower_id;
      log.start_minute =
          static_cast<std::uint32_t>(slot * TimeGrid::kSlotMinutes);
      log.end_minute = log.start_minute;
      log.bytes = profile(slot);
      logs.push_back(log);
    }
    ingestor.offer_batch(logs);
  }

  std::shared_ptr<const OnlineClassifier> make_classifier() {
    return std::make_shared<const OnlineClassifier>(synthetic_model());
  }

  ThreadPool pool{2};
  StreamIngestor ingestor;
  QueryService service{ingestor, &pool};
};

TEST_F(QueryServiceTest, ModelEndpointsAnswer503BeforeFirstPublish) {
  EXPECT_EQ(service.model(), nullptr);
  EXPECT_EQ(service.model_epoch(), 0u);
  EXPECT_EQ(service.dispatch(get_request("/towers/1/class")).status, 503);
  EXPECT_EQ(service.dispatch(get_request("/towers/1/forecast")).status, 503);
  EXPECT_EQ(service.dispatch(post_request("/classify", "[]")).status, 503);
  // Window and stats need no model.
  EXPECT_EQ(service.dispatch(get_request("/towers/1/window")).status, 200);
  EXPECT_EQ(service.dispatch(get_request("/stats")).status, 200);
}

TEST_F(QueryServiceTest, PublishSwapsModelAndBumpsEpoch) {
  const auto first = make_classifier();
  service.publish_model(first);
  EXPECT_EQ(service.model(), first);
  EXPECT_EQ(service.model_epoch(), 1u);
  const auto second = make_classifier();
  service.publish_model(second);
  EXPECT_EQ(service.model(), second);
  EXPECT_EQ(service.model_epoch(), 2u);
  EXPECT_THROW(service.publish_model(nullptr), Error);
}

TEST_F(QueryServiceTest, ClassEndpointIsBitIdenticalToClassifier) {
  const auto classifier = make_classifier();
  service.publish_model(classifier);
  for (const std::uint32_t tower : {1u, 2u, 3u, 4u}) {
    const auto response = service.dispatch(
        get_request("/towers/" + std::to_string(tower) + "/class"));
    ASSERT_EQ(response.status, 200) << response.body;
    const JsonValue doc = JsonValue::parse(response.body);
    EXPECT_EQ(doc.at("tower").as_number(), tower);
    const JsonValue& body = doc.at("classification");
    const Classification expected =
        classifier->classify(ingestor.window_copy(tower));
    EXPECT_EQ(static_cast<std::size_t>(body.at("cluster").as_number()),
              expected.cluster);
    EXPECT_EQ(body.at("region").as_string(), region_name(expected.region));
    // %.17g serialization: parsed doubles equal the computed ones bit
    // for bit.
    EXPECT_EQ(body.at("distance").as_number(), expected.distance);
    EXPECT_EQ(body.at("confidence").as_number(), expected.confidence);
    EXPECT_EQ(body.at("cold_start").as_bool(), expected.cold_start);
    EXPECT_EQ(body.at("model_epoch").as_number(), 1.0);
  }
}

TEST_F(QueryServiceTest, WindowEndpointMatchesWindowStats) {
  const auto response = service.dispatch(get_request("/towers/1/window"));
  ASSERT_EQ(response.status, 200) << response.body;
  const JsonValue doc = JsonValue::parse(response.body);
  const TowerWindowStats stats = ingestor.window_stats(1);
  EXPECT_EQ(doc.at("observed_slots").as_number(),
            static_cast<double>(stats.observed_slots));
  EXPECT_EQ(doc.at("total_bytes").as_number(),
            static_cast<double>(stats.total_bytes));
  EXPECT_EQ(doc.at("mean").as_number(), stats.mean);
  EXPECT_EQ(doc.at("variance").as_number(), stats.variance);
  EXPECT_EQ(doc.at("latest_minute").as_number(),
            static_cast<double>(stats.latest_minute));
}

TEST_F(QueryServiceTest, ForecastEndpointMatchesForecaster) {
  const auto classifier = make_classifier();
  service.publish_model(classifier);

  const auto response = service.dispatch(
      get_request("/towers/4/forecast", "horizon=288"));
  ASSERT_EQ(response.status, 200) << response.body;
  const JsonValue doc = JsonValue::parse(response.body);
  EXPECT_EQ(doc.at("horizon").as_number(), 288.0);

  const auto history = ingestor.window_copy(4).observed_history();
  const auto expected = classifier->forecaster().forecast(history, 288);
  const auto& values = doc.at("values").as_array();
  ASSERT_EQ(values.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(values[i].as_number(), expected[i]) << "slot " << i;
  EXPECT_EQ(static_cast<std::size_t>(doc.at("template").as_number()),
            classifier->forecaster().match(history));

  // Default horizon is one day of slots.
  const auto default_response =
      service.dispatch(get_request("/towers/4/forecast"));
  ASSERT_EQ(default_response.status, 200);
  EXPECT_EQ(JsonValue::parse(default_response.body)
                .at("values")
                .as_array()
                .size(),
            static_cast<std::size_t>(TimeGrid::kSlotsPerDay));
}

TEST_F(QueryServiceTest, ForecastGuardsHorizonAndHistory) {
  service.publish_model(make_classifier());
  EXPECT_EQ(service
                .dispatch(get_request("/towers/4/forecast", "horizon=0"))
                .status,
            400);
  EXPECT_EQ(service
                .dispatch(get_request("/towers/4/forecast", "horizon=9999"))
                .status,
            400);
  EXPECT_EQ(service
                .dispatch(get_request("/towers/4/forecast", "horizon=abc"))
                .status,
            400);
  // Tower 3 has 10 observed slots — under the forecaster's match floor.
  const auto starving =
      service.dispatch(get_request("/towers/3/forecast"));
  EXPECT_EQ(starving.status, 409);
  EXPECT_NE(starving.body.find("insufficient history"), std::string::npos);
}

TEST_F(QueryServiceTest, ClassifyPostScoresAFoldedWeek) {
  const auto classifier = make_classifier();
  service.publish_model(classifier);
  const std::string body = week_body(classifier->model().centroids[1]);
  const auto response = service.dispatch(post_request("/classify", body));
  ASSERT_EQ(response.status, 200) << response.body;
  const JsonValue doc = JsonValue::parse(response.body);
  EXPECT_EQ(doc.at("cluster").as_number(), 1.0);
  EXPECT_EQ(doc.at("region").as_string(),
            region_name(FunctionalRegion::kResident));
  EXPECT_LT(doc.at("distance").as_number(), 1e-12);

  // The wrapped form routes identically.
  const auto wrapped = service.dispatch(
      post_request("/classify", "{\"folded_week\":" + body + "}"));
  EXPECT_EQ(wrapped.status, 200);
}

TEST_F(QueryServiceTest, ClassifyPostRejectsDamage) {
  service.publish_model(make_classifier());
  EXPECT_EQ(service.dispatch(post_request("/classify", "not json")).status,
            400);
  EXPECT_EQ(service.dispatch(post_request("/classify", "[1,2,3]")).status,
            400);  // wrong length
  EXPECT_EQ(service.dispatch(post_request("/classify", "{\"x\":1}")).status,
            400);
  std::string strings = "[";
  for (std::size_t i = 0; i < TimeGrid::kSlotsPerWeek; ++i)
    strings += i == 0 ? "\"a\"" : ",\"a\"";
  strings += "]";
  EXPECT_EQ(service.dispatch(post_request("/classify", strings)).status,
            400);
}

TEST_F(QueryServiceTest, ClassifyPostMatchesLiveClassifyBitForBit) {
  // A live window's folded week, posted at %.17g, must score exactly as
  // classify() scores the window itself: both read (A28, P28, A56) from
  // the same fold.
  const auto classifier =
      std::make_shared<const OnlineClassifier>(model_with_primaries());
  service.publish_model(classifier);
  const auto& primaries = classifier->model().primary_features;
  for (const std::uint32_t tower : {1u, 2u, 4u}) {
    const TowerWindow window = ingestor.window_copy(tower);
    const Classification expected = classifier->classify(window);
    ASSERT_FALSE(expected.cold_start) << "tower " << tower;
    const auto decomposition = decompose_feature(
        compute_week_freq_features(window.folded_week()).qp_feature(),
        primaries);
    ASSERT_EQ(expected.confidence, 1.0 / (1.0 + decomposition.residual));

    const auto response = service.dispatch(
        post_request("/classify", week_body(window.folded_week())));
    ASSERT_EQ(response.status, 200) << response.body;
    const JsonValue doc = JsonValue::parse(response.body);
    EXPECT_EQ(static_cast<std::size_t>(doc.at("cluster").as_number()),
              expected.cluster);
    EXPECT_EQ(doc.at("distance").as_number(), expected.distance);
    const auto& weights = doc.at("weights").as_array();
    ASSERT_EQ(weights.size(), decomposition.coefficients.size());
    for (std::size_t w = 0; w < weights.size(); ++w)
      EXPECT_EQ(weights[w].as_number(), decomposition.coefficients[w])
          << "tower " << tower << " weight " << w;
    EXPECT_EQ(doc.at("residual").as_number(), decomposition.residual);
    EXPECT_EQ(doc.at("confidence").as_number(), expected.confidence);
  }
}

TEST_F(QueryServiceTest, ClassifyPostRejectsNonFiniteNumbersWith400) {
  // 1e999 and -nan used to parse (as inf and NaN), reach the convex
  // decomposition as NaN features and answer 500 with an internal check
  // message; they are not JSON numbers, so the body is a 400.
  service.publish_model(
      std::make_shared<const OnlineClassifier>(model_with_primaries()));
  const auto week = ingestor.window_copy(1).folded_week();
  const std::string good = week_body(week);
  ASSERT_EQ(service.dispatch(post_request("/classify", good)).status, 200);
  for (const std::string bad : {"1e999", "-1e999", "-nan", "nan", "inf",
                                "-Infinity", "0x10", "+1", ".5", "1."}) {
    // Swap the first slot's literal for the bad one.
    const std::string body = "[" + bad + good.substr(good.find(','));
    const auto response = service.dispatch(post_request("/classify", body));
    EXPECT_EQ(response.status, 400) << bad << ": " << response.body;
    EXPECT_NE(response.body.find("malformed JSON"), std::string::npos)
        << bad;
  }
}

TEST_F(QueryServiceTest, ClassifyPostRejectsDeepNestingWith400) {
  // 150 000 '[' used to recurse the JSON parser into a stack overflow
  // that killed the daemon; it must be an ordinary 400 instead.
  service.publish_model(make_classifier());
  const auto response = service.dispatch(
      post_request("/classify", std::string(150000, '[')));
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("malformed JSON"), std::string::npos);
}

TEST_F(QueryServiceTest, RoutingEdges) {
  service.publish_model(make_classifier());
  EXPECT_EQ(service.dispatch(get_request("/towers/99/class")).status, 404);
  EXPECT_EQ(service.dispatch(get_request("/towers/abc/class")).status, 400);
  EXPECT_EQ(service.dispatch(get_request("/towers/1/nope")).status, 404);
  EXPECT_EQ(service.dispatch(get_request("/towers/1")).status, 404);
  EXPECT_EQ(service.dispatch(get_request("/classify")).status, 405);
  EXPECT_EQ(service.dispatch(post_request("/stats", "")).status, 405);
  EXPECT_EQ(service.dispatch(post_request("/nope", "")).status, 405);
}

TEST_F(QueryServiceTest, UnknownGetsFallBackToIntrospectionPlane) {
  const auto metrics = service.dispatch(get_request("/metrics"));
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("# TYPE"), std::string::npos);
  const auto health = service.dispatch(get_request("/healthz"));
  EXPECT_NE(health.body.find("\"verdicts\""), std::string::npos);
  EXPECT_EQ(service.dispatch(get_request("/no/such/endpoint")).status, 404);
}

TEST_F(QueryServiceTest, StatsReportsServingPlane) {
  service.publish_model(make_classifier());
  // Drive one request through each family so the endpoint table is live.
  service.dispatch(get_request("/towers/1/class"));
  service.dispatch(get_request("/towers/1/window"));
  const auto response = service.dispatch(get_request("/stats"));
  ASSERT_EQ(response.status, 200);
  const JsonValue doc = JsonValue::parse(response.body);
  EXPECT_EQ(doc.at("model_epoch").as_number(), 1.0);
  EXPECT_EQ(doc.at("model_published").as_bool(), true);
  ASSERT_TRUE(doc.contains("endpoints"));
  ASSERT_TRUE(doc.at("endpoints").contains("class"));
  EXPECT_TRUE(doc.at("endpoints").at("class").contains("p99_ms"));
  ASSERT_TRUE(doc.contains("ingest"));
  EXPECT_TRUE(doc.at("ingest").contains("shards"));
}

// --- golden bodies ------------------------------------------------------
// Exact response bytes for the fixture above: key order, separators, the
// %.17g number format and error-body escaping. These pins are the
// contract the JSON writer must keep; they are not re-captured when the
// serializer changes.

TEST_F(QueryServiceTest, GoldenClassBody) {
  service.publish_model(make_classifier());
  const auto response = service.dispatch(get_request("/towers/4/class"));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "application/json");
  EXPECT_EQ(response.body,
            "{\"tower\":4,\"classification\":{\"cluster\":0,\"region\":"
            "\"Office\",\"distance\":921.75231877239253,\"confidence\":"
            "0.031887374655944649,\"cold_start\":false,\"model_epoch\":1}}");
}

TEST_F(QueryServiceTest, GoldenWindowBody) {
  const auto response = service.dispatch(get_request("/towers/4/window"));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body,
            "{\"tower\":4,\"observed_slots\":200,\"total_bytes\":460129,"
            "\"mean\":114.11929563492063,\"variance\":303868.04901259911,"
            "\"latest_minute\":1990,\"latest_cycle\":0}");
}

TEST_F(QueryServiceTest, GoldenForecastBody) {
  service.publish_model(make_classifier());
  const auto response = service.dispatch(
      get_request("/towers/4/forecast", "horizon=3"));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body,
            "{\"tower\":4,\"horizon\":3,\"template\":0,\"region\":"
            "\"Office\",\"model_epoch\":1,\"values\":[2964,2913,2860]}");
}

TEST_F(QueryServiceTest, GoldenClassifyBodies) {
  service.publish_model(make_classifier());
  // A blend of three profiles, so distance and weights are interior.
  const auto office = profile_week(office_bytes);
  const auto evening = profile_week(evening_bytes);
  const auto half_day = profile_week(half_day_bytes);
  std::vector<double> blend(office.size());
  for (std::size_t s = 0; s < blend.size(); ++s)
    blend[s] = 0.5 * office[s] + 0.3 * evening[s] + 0.2 * half_day[s];
  const std::string body = week_body(blend);
  const auto plain = service.dispatch(post_request("/classify", body));
  EXPECT_EQ(plain.status, 200);
  EXPECT_EQ(plain.body,
            "{\"cluster\":0,\"region\":\"Office\",\"distance\":"
            "425.51509131814464,\"weights\":null,\"confidence\":"
            "0.046236323621993008,\"model_epoch\":1}");

  service.publish_model(
      std::make_shared<const OnlineClassifier>(model_with_primaries()));
  const auto weighted = service.dispatch(post_request("/classify", body));
  EXPECT_EQ(weighted.status, 200);
  EXPECT_EQ(weighted.body,
            "{\"cluster\":0,\"region\":\"Office\",\"distance\":"
            "425.51509131814464,\"weights\":[0,0.36235735915153905,"
            "0.63764264084846101,0],\"residual\":0.12176973229686826,"
            "\"confidence\":0.8914485488500925,\"model_epoch\":2}");
}

TEST_F(QueryServiceTest, GoldenErrorBodies) {
  const auto no_model = service.dispatch(get_request("/towers/1/class"));
  EXPECT_EQ(no_model.status, 503);
  EXPECT_EQ(no_model.content_type, "application/json");
  EXPECT_EQ(no_model.body, "{\"error\":\"no model published yet\"}");

  service.publish_model(make_classifier());
  const auto bad_id = service.dispatch(get_request("/towers/x/class"));
  EXPECT_EQ(bad_id.status, 400);
  EXPECT_EQ(bad_id.body,
            "{\"error\":\"tower id must be a 32-bit integer\"}");
  const auto bad_json = service.dispatch(post_request("/classify", "[1,"));
  EXPECT_EQ(bad_json.status, 400);
  EXPECT_EQ(bad_json.body, "{\"error\":\"malformed JSON body\"}");
  const auto no_window = service.dispatch(get_request("/towers/99/window"));
  EXPECT_EQ(no_window.status, 404);
  EXPECT_EQ(no_window.body, "{\"error\":\"no window for this tower\"}");
  const auto short_history =
      service.dispatch(get_request("/towers/3/forecast"));
  EXPECT_EQ(short_history.status, 409);
  EXPECT_EQ(short_history.body,
            "{\"error\":\"insufficient history for a forecast\","
            "\"observed_slots\":10,\"required_slots\":72}");
}

}  // namespace
}  // namespace cellscope::server
