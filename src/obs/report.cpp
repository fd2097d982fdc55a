#include "obs/report.h"

#include <chrono>
#include <cstdlib>
#include <mutex>

#include "common/error.h"
#include "common/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/quality.h"
#include "obs/timer.h"

// Baked in by src/obs/CMakeLists.txt at configure time; "unknown" when
// the tree is not a git checkout.
#ifndef CELLSCOPE_GIT_SHA
#define CELLSCOPE_GIT_SHA "unknown"
#endif
#ifndef CELLSCOPE_BUILD_TYPE
#define CELLSCOPE_BUILD_TYPE "unknown"
#endif

namespace cellscope::obs {

namespace {

/// Every number in a report (config values, stage times) prints "%.6f".
constexpr auto kStyle = JsonNumber::kFixed6;

/// The armed exit report: name fixed by the first caller, config merged
/// across callers (an Experiment inside a bench contributes its rows to
/// the bench's report).
struct ArmedReport {
  std::mutex mutex;
  std::string name;
  std::vector<std::pair<std::string, std::string>> config;  // json tokens
  bool atexit_registered = false;
};

ArmedReport& armed_report() {
  static ArmedReport* armed = new ArmedReport;  // never destroyed
  return *armed;
}

void write_armed_report_at_exit() {
  const std::string& path = run_report_path();
  if (path.empty()) return;
  auto& armed = armed_report();
  std::string name;
  std::vector<std::pair<std::string, std::string>> config;
  {
    std::lock_guard<std::mutex> lock(armed.mutex);
    name = armed.name;
    config = armed.config;
  }
  RunReport report(std::move(name));
  for (auto& [key, token] : config)
    report.add_config_json(key, std::move(token));
  try {
    report.write(path);
    log_info("run_report.written", {{"path", path}});
  } catch (const Error& e) {
    // Exit-time report writes must never turn a green run red.
    log_warn("run_report.write_failed", {{"path", path}, {"error", e.what()}});
  }
}

}  // namespace

BuildInfo build_info() {
  BuildInfo info;
  info.git_sha = CELLSCOPE_GIT_SHA;
  info.build_type = CELLSCOPE_BUILD_TYPE;
#ifdef __VERSION__
  info.compiler = __VERSION__;
#else
  info.compiler = "unknown";
#endif
  return info;
}

const std::string& run_report_path() {
  static const std::string path = [] {
    const char* env = std::getenv("CELLSCOPE_RUN_REPORT");
    return std::string(env && *env ? env : "");
  }();
  return path;
}

RunReport::RunReport(std::string name) : name_(std::move(name)) {}

void RunReport::add_config_json(std::string_view key,
                                std::string json_token) {
  for (auto& [k, v] : config_) {
    if (k == key) {
      v = std::move(json_token);
      return;
    }
  }
  config_.emplace_back(std::string(key), std::move(json_token));
}

void RunReport::add_config(std::string_view key, std::string_view value) {
  add_config_json(key, JsonWriter().string(value).take());
}

void RunReport::add_config(std::string_view key, double value) {
  add_config_json(key, JsonWriter().number(value, kStyle).take());
}

void RunReport::add_config(std::string_view key, bool value) {
  add_config_json(key, JsonWriter().boolean(value).take());
}

void RunReport::add_config(std::string_view key, std::uint64_t value) {
  add_config_json(key, JsonWriter().integer(value).take());
}

void RunReport::add_config(std::string_view key, std::int64_t value) {
  add_config_json(key, JsonWriter().integer(value).take());
}

std::string RunReport::to_json() const {
  const BuildInfo build = build_info();
  JsonWriter w;
  w.begin_object().key("report").string(name_).key("schema").integer(1);
  w.key("created_unix_s")
      .integer(std::chrono::duration_cast<std::chrono::seconds>(
                   std::chrono::system_clock::now().time_since_epoch())
                   .count());
  w.key("build").begin_object();
  w.key("git_sha").string(build.git_sha);
  w.key("build_type").string(build.build_type);
  w.key("compiler").string(build.compiler).end_object();
  w.key("config").begin_object();
  for (const auto& [key, token] : config_) w.key(key).raw(token);
  w.end_object().key("wall_s").number(now_us() / 1e6, kStyle);
  w.key("stages").begin_array();
  for (const auto& e : StageTrace::instance().events()) {
    w.begin_object().key("name").string(e.name).key("cat").string(e.category);
    w.key("ts_us").number(e.ts_us, kStyle);
    w.key("dur_us").number(e.dur_us, kStyle).end_object();
  }
  w.end_array().key("metrics").raw(MetricsRegistry::instance().snapshot_json());
  w.key("quality");
  QualityBoard::instance().write_summary(w);
  w.end_object();
  return w.take();
}

void RunReport::write(const std::string& path) const {
  write_json_file(path, to_json());
}

bool arm_run_report(const std::string& name) {
  return arm_run_report(name, {});
}

bool arm_run_report(
    const std::string& name,
    const std::vector<std::pair<std::string, std::string>>& config_json) {
  if (run_report_path().empty()) return false;
  // The report wants per-stage spans even without CELLSCOPE_TRACE.
  StageTrace::instance().set_enabled(true);
  auto& armed = armed_report();
  std::lock_guard<std::mutex> lock(armed.mutex);
  if (armed.name.empty()) armed.name = name;
  for (const auto& [key, token] : config_json) {
    bool replaced = false;
    for (auto& [k, v] : armed.config) {
      if (k == key) {
        v = token;
        replaced = true;
        break;
      }
    }
    if (!replaced) armed.config.emplace_back(key, token);
  }
  if (!armed.atexit_registered) {
    armed.atexit_registered = true;
    std::atexit(write_armed_report_at_exit);
  }
  return true;
}

bool run_report_armed() {
  auto& armed = armed_report();
  std::lock_guard<std::mutex> lock(armed.mutex);
  return armed.atexit_registered;
}

}  // namespace cellscope::obs
