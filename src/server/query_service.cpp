#include "server/query_service.h"

#include <charconv>
#include <cmath>

#include "analysis/component_analysis.h"
#include "analysis/freq_features.h"
#include "city/functional_region.h"
#include "common/error.h"
#include "common/json.h"
#include "common/stats.h"
#include "common/time_grid.h"
#include "obs/metrics.h"

namespace cellscope::server {

namespace {

/// Response doubles print round-trip exact, so a client parsing the JSON
/// recovers the server's double bit for bit (the `-L server` bit-identity
/// tests depend on this).
constexpr auto kStyle = JsonNumber::kRoundTrip;

HttpResponse json_response(int status, JsonWriter& w) {
  HttpResponse response;
  response.status = status;
  response.content_type = "application/json";
  response.body = w.take();
  return response;
}

/// Strict decimal parse of a path segment / query value.
std::optional<std::uint64_t> parse_u64(std::string_view s) {
  std::uint64_t value = 0;
  if (s.empty()) return std::nullopt;
  const auto [ptr, ec] =
      std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) return std::nullopt;
  return value;
}

}  // namespace

HttpResponse error_response(int status, std::string_view message) {
  JsonWriter w;
  w.begin_object().key("error").string(message).end_object();
  return json_response(status, w);
}

std::string_view endpoint_name(Endpoint endpoint) {
  switch (endpoint) {
    case Endpoint::kClass:
      return "class";
    case Endpoint::kWindow:
      return "window";
    case Endpoint::kForecast:
      return "forecast";
    case Endpoint::kClassify:
      return "classify";
    case Endpoint::kStats:
      return "stats";
    case Endpoint::kOther:
      return "other";
  }
  return "other";
}

ServerMetrics::ServerMetrics() {
  auto& registry = obs::MetricsRegistry::instance();
  requests = &registry.counter("cellscope.server.requests");
  errors_500 = &registry.counter("cellscope.server.errors_500");
  bad_requests = &registry.counter("cellscope.server.bad_requests");
  shed_503 = &registry.counter("cellscope.server.shed_503");
  shed_429 = &registry.counter("cellscope.server.shed_429");
  accept_errors = &registry.counter("cellscope.server.accept_errors");
  reply_partial = &registry.counter("cellscope.server.reply_partial");
  connections = &registry.gauge("cellscope.server.connections");
  queue_depth = &registry.gauge("cellscope.server.queue_depth");
  for (std::size_t e = 0; e < kEndpointCount; ++e) {
    latency_ms[e] = &registry.histogram(
        "cellscope.server.latency_ms." +
        std::string(endpoint_name(static_cast<Endpoint>(e))));
  }
}

ServerMetrics& ServerMetrics::instance() {
  static ServerMetrics* metrics = new ServerMetrics;  // leaked like obs
  return *metrics;
}

QueryService::QueryService(StreamIngestor& ingestor, ThreadPool* pool)
    : ingestor_(ingestor), pool_(pool) {
  ServerMetrics::instance();  // force registration before serving starts
}

void QueryService::publish_model(
    std::shared_ptr<const OnlineClassifier> model) {
  CS_CHECK_MSG(model != nullptr, "cannot publish a null model");
  // RCU swap: the lock covers only the pointer exchange, so a publish
  // holds up readers for one pointer copy at most; readers holding the
  // old shared_ptr keep that epoch alive past the swap. (A mutex, not
  // std::atomic<shared_ptr>: libstdc++'s _Sp_atomic unlocks its spin
  // bit with relaxed ordering in load(), which ThreadSanitizer cannot
  // prove race-free.) The epoch counter is advanced after the swap, so
  // a reader pairing model() with model_epoch() may see epoch N with
  // model N+1 during a rollover — never the reverse (a stale model
  // with a new epoch number).
  {
    const std::lock_guard<std::mutex> lock(model_mutex_);
    model_ = std::move(model);
  }
  epoch_.fetch_add(1, std::memory_order_release);
}

std::shared_ptr<const OnlineClassifier> QueryService::model() const {
  const std::lock_guard<std::mutex> lock(model_mutex_);
  return model_;
}

std::uint64_t QueryService::model_epoch() const {
  return epoch_.load(std::memory_order_acquire);
}

HttpResponse QueryService::dispatch(const HttpRequest& request,
                                    Endpoint* endpoint_out) const {
  Endpoint endpoint = Endpoint::kOther;
  HttpResponse response;
  try {
    if (request.path.starts_with("/towers/")) {
      response = dispatch_towers(request, &endpoint);
    } else if (request.path == "/classify") {
      endpoint = Endpoint::kClassify;
      response = request.method == "POST"
                     ? handle_classify(request)
                     : error_response(405, "POST a folded week to /classify");
    } else if (request.path == "/stats") {
      endpoint = Endpoint::kStats;
      response = request.method == "GET"
                     ? handle_stats()
                     : error_response(405, "only GET is supported");
    } else if (request.method == "GET") {
      // Everything the introspection plane already serves (/metrics,
      // /metrics.json, /healthz, /stream) plus its 404 for the rest.
      response = obs::IntrospectionServer::instance().handle(request.path);
    } else {
      response = error_response(405, "only GET is supported");
    }
  } catch (const std::exception& e) {
    ServerMetrics::instance().errors_500->add(1);
    response = error_response(500, e.what());
  }
  if (endpoint_out != nullptr) *endpoint_out = endpoint;
  return response;
}

HttpResponse QueryService::dispatch_towers(const HttpRequest& request,
                                           Endpoint* endpoint_out) const {
  // "/towers/<id>/<leaf>"
  const std::string_view path = request.path;
  const std::string_view rest = path.substr(8);  // after "/towers/"
  const std::size_t slash = rest.find('/');
  if (slash == std::string_view::npos)
    return error_response(404, "expected /towers/<id>/<endpoint>");
  const auto id = parse_u64(rest.substr(0, slash));
  if (!id.has_value() || *id > 0xffffffffu)
    return error_response(400, "tower id must be a 32-bit integer");
  const std::string_view leaf = rest.substr(slash + 1);
  if (request.method != "GET")
    return error_response(405, "only GET is supported");
  const auto tower_id = static_cast<std::uint32_t>(*id);
  if (leaf == "class") {
    *endpoint_out = Endpoint::kClass;
    return handle_class(tower_id);
  }
  if (leaf == "window") {
    *endpoint_out = Endpoint::kWindow;
    return handle_window(tower_id);
  }
  if (leaf == "forecast") {
    *endpoint_out = Endpoint::kForecast;
    return handle_forecast(tower_id, request);
  }
  return error_response(404, "unknown tower endpoint");
}

HttpResponse QueryService::handle_class(std::uint32_t tower_id) const {
  const auto classifier = model();
  if (classifier == nullptr)
    return error_response(503, "no model published yet");
  const std::uint64_t epoch = model_epoch();
  TowerWindow window;
  try {
    window = ingestor_.window_copy(tower_id);
  } catch (const InvalidArgument&) {
    return error_response(404, "no window for this tower");
  }
  const Classification c = classifier->classify(window);
  JsonWriter w;
  w.begin_object().key("tower").integer(tower_id);
  w.key("classification").begin_object().key("cluster").integer(c.cluster);
  w.key("region").string(region_name(c.region));
  w.key("distance").number(c.distance, kStyle);
  w.key("confidence").number(c.confidence, kStyle);
  w.key("cold_start").boolean(c.cold_start);
  w.key("model_epoch").integer(epoch).end_object().end_object();
  return json_response(200, w);
}

HttpResponse QueryService::handle_window(std::uint32_t tower_id) const {
  TowerWindowStats stats;
  try {
    stats = ingestor_.window_stats(tower_id);
  } catch (const InvalidArgument&) {
    return error_response(404, "no window for this tower");
  }
  JsonWriter w;
  w.begin_object().key("tower").integer(tower_id);
  w.key("observed_slots").integer(stats.observed_slots);
  w.key("total_bytes").integer(stats.total_bytes);
  w.key("mean").number(stats.mean, kStyle);
  w.key("variance").number(stats.variance, kStyle);
  w.key("latest_minute").integer(stats.latest_minute);
  w.key("latest_cycle").integer(stats.latest_cycle).end_object();
  return json_response(200, w);
}

HttpResponse QueryService::handle_forecast(std::uint32_t tower_id,
                                           const HttpRequest& request) const {
  const auto classifier = model();
  if (classifier == nullptr)
    return error_response(503, "no model published yet");

  std::size_t horizon = TimeGrid::kSlotsPerDay;  // one day of slots
  if (const auto param = query_param(request, "horizon");
      param.has_value()) {
    const auto parsed = parse_u64(*param);
    if (!parsed.has_value() || *parsed == 0 || *parsed > TimeGrid::kSlots)
      return error_response(400, "horizon must be in [1, 4032] slots");
    horizon = static_cast<std::size_t>(*parsed);
  }

  TowerWindow window;
  try {
    window = ingestor_.window_copy(tower_id);
  } catch (const InvalidArgument&) {
    return error_response(404, "no window for this tower");
  }
  const auto history = window.observed_history();
  JsonWriter w;
  if (history.size() < PatternForecaster::kMinMatchSlots) {
    w.begin_object().key("error").string("insufficient history for a forecast");
    w.key("observed_slots").integer(history.size());
    w.key("required_slots").integer(PatternForecaster::kMinMatchSlots);
    w.end_object();
    return json_response(409, w);
  }

  const auto& forecaster = classifier->forecaster();
  const std::size_t matched = forecaster.match(history);
  const auto values = forecaster.forecast(history, horizon);
  w.begin_object().key("tower").integer(tower_id);
  w.key("horizon").integer(horizon);
  w.key("template").integer(matched);
  w.key("region").string(region_name(classifier->model().regions[matched]));
  w.key("model_epoch").integer(model_epoch());
  w.key("values").begin_array();
  for (const double v : values) w.number(v, kStyle);
  w.end_array().end_object();
  return json_response(200, w);
}

HttpResponse QueryService::handle_classify(const HttpRequest& request) const {
  const auto classifier = model();
  if (classifier == nullptr)
    return error_response(503, "no model published yet");

  // Body: a bare JSON array of 1008 numbers, or {"folded_week":[...]}.
  std::vector<double> folded;
  try {
    const JsonValue doc = JsonValue::parse(request.body);
    const JsonValue::Array* array = nullptr;
    if (doc.is_array()) {
      array = &doc.as_array();
    } else if (doc.is_object() && doc.contains("folded_week") &&
               doc.at("folded_week").is_array()) {
      array = &doc.at("folded_week").as_array();
    } else {
      return error_response(
          400, "body must be a folded-week array or {folded_week:[...]}");
    }
    folded.reserve(array->size());
    for (const auto& v : *array) {
      if (!v.is_number())
        return error_response(400, "folded week must be all numbers");
      folded.push_back(v.as_number());
    }
  } catch (const InvalidArgument&) {
    return error_response(400, "malformed JSON body");
  }
  if (folded.size() != static_cast<std::size_t>(TimeGrid::kSlotsPerWeek))
    return error_response(400, "folded week must have 1008 slots");

  // Nearest folded-week centroid — the same scoring rule
  // OnlineClassifier::classify applies to a live window.
  const ModelSnapshot& snapshot = classifier->model();
  double best = 0.0;
  const std::size_t best_cluster = classifier->nearest_centroid(folded, &best);

  JsonWriter w;
  w.begin_object().key("cluster").integer(best_cluster);
  w.key("region").string(region_name(snapshot.regions[best_cluster]));
  w.key("distance").number(best, kStyle);

  if (snapshot.has_primaries) {
    // Convex weights over the four primary components (§5.3), from the
    // posted week's (A28, P28, A56) — the feature OnlineClassifier::classify
    // reads from a live window's fold, so both paths agree bit for bit.
    const auto feature = compute_week_freq_features(folded).qp_feature();
    const auto decomposition =
        decompose_feature(feature, snapshot.primary_features);
    w.key("weights").begin_array();
    for (const double weight : decomposition.coefficients)
      w.number(weight, kStyle);
    w.end_array().key("residual").number(decomposition.residual, kStyle);
    w.key("confidence").number(1.0 / (1.0 + decomposition.residual), kStyle);
  } else {
    w.key("weights").null();
    w.key("confidence").number(1.0 / (1.0 + std::sqrt(best)), kStyle);
  }
  w.key("model_epoch").integer(model_epoch()).end_object();
  return json_response(200, w);
}

HttpResponse QueryService::handle_stats() const {
  const auto& metrics = ServerMetrics::instance();
  JsonWriter w;
  w.begin_object().key("model_epoch").integer(model_epoch());
  w.key("model_published").boolean(model() != nullptr);
  w.key("requests").integer(metrics.requests->value());
  w.key("errors_500").integer(metrics.errors_500->value());
  w.key("bad_requests").integer(metrics.bad_requests->value());
  w.key("shed_503").integer(metrics.shed_503->value());
  w.key("shed_429").integer(metrics.shed_429->value());
  w.key("accept_errors").integer(metrics.accept_errors->value());
  w.key("reply_partial").integer(metrics.reply_partial->value());
  w.key("connections").integer(metrics.connections->value());
  w.key("queue_depth").integer(metrics.queue_depth->value());
  w.key("endpoints").begin_object();
  for (std::size_t e = 0; e < kEndpointCount; ++e) {
    const auto* histogram = metrics.latency_ms[e];
    w.key(endpoint_name(static_cast<Endpoint>(e))).begin_object();
    w.key("requests").integer(histogram->count());
    w.key("p50_ms").number(histogram->quantile(0.5), kStyle);
    w.key("p99_ms").number(histogram->quantile(0.99), kStyle).end_object();
  }
  w.end_object().key("ingest").raw(ingestor_.status_json()).end_object();
  return json_response(200, w);
}

}  // namespace cellscope::server
