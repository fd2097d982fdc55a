#include "obs/introspect.h"

#include "common/json.h"
#include "obs/metrics.h"
#include "obs/quality.h"

namespace cellscope::obs {

namespace {

/// The /healthz body: quality-sentinel tallies plus every verdict.
HttpResponse healthz_response() {
  JsonWriter w;
  HttpResponse response;
  response.status = QualityBoard::instance().write_summary(w) ? 200 : 503;
  response.content_type = "application/json";
  response.body = w.take();
  return response;
}

}  // namespace

IntrospectionServer::IntrospectionServer() {
  set_handler("/metrics", [] {
    HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = MetricsRegistry::instance().snapshot_prometheus();
    return response;
  });
  set_handler("/metrics.json", [] {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = MetricsRegistry::instance().snapshot_json();
    return response;
  });
  set_handler("/healthz", [] { return healthz_response(); });
}

IntrospectionServer& IntrospectionServer::instance() {
  // Leaked like the other obs singletons: components deregistering
  // handlers from static destructors must find a live object.
  static IntrospectionServer* server = new IntrospectionServer;
  return *server;
}

void IntrospectionServer::set_handler(const std::string& path,
                                      Handler handler, const void* owner) {
  std::lock_guard<std::mutex> lock(mutex_);
  handlers_[path] = Registration{std::move(handler), owner};
}

void IntrospectionServer::remove_handler(const std::string& path,
                                         const void* owner) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = handlers_.find(path);
    if (it == handlers_.end()) return;
    if (owner != nullptr && it->second.owner != owner) return;
    handlers_.erase(it);
  }
  // Drain any in-flight invocation: once we hold exec_mutex_, no handler
  // (including the one just erased) is still running, so the caller may
  // free whatever state its handler captured.
  std::lock_guard<std::mutex> exec_lock(exec_mutex_);
}

HttpResponse IntrospectionServer::handle(std::string_view path) const {
  // Strip any query string; endpoints are parameterless today.
  const auto query = path.find('?');
  if (query != std::string_view::npos) path = path.substr(0, query);

  // exec_mutex_ is taken *before* the table lookup so remove_handler's
  // erase-then-drain sequence is airtight: once it returns, the erased
  // handler neither runs nor will run. mutex_ is only held for the
  // lookup itself; handlers run outside it and may take component locks.
  std::lock_guard<std::mutex> exec_lock(exec_mutex_);
  Handler handler;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = handlers_.find(path);
    if (it != handlers_.end()) handler = it->second.handler;
  }
  if (!handler) {
    HttpResponse response;
    response.status = 404;
    response.body = "no such endpoint: " + std::string(path) + '\n';
    return response;
  }
  try {
    return handler();
  } catch (const std::exception& e) {
    HttpResponse response;
    response.status = 500;
    response.body = std::string("handler error: ") + e.what() + '\n';
    return response;
  }
}

}  // namespace cellscope::obs
