// The replay's periodic metrics scrape (ReplayOptions::metrics_jsonl_path)
// must not lose lines silently: a failed write is logged once and the
// replay itself still completes.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "mapred/thread_pool.h"
#include "obs/log.h"
#include "stream/ingestor.h"
#include "stream/replay.h"

namespace cellscope {
namespace {

std::vector<TrafficLog> sample_logs(std::size_t n) {
  std::vector<TrafficLog> logs;
  logs.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    logs.push_back({i, static_cast<std::uint32_t>(i % 16),
                    static_cast<std::uint32_t>(i),
                    static_cast<std::uint32_t>(i + 5), 1000 + i, ""});
  return logs;
}

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t count = 0;
  for (auto pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size()))
    ++count;
  return count;
}

TEST(ReplayMetricsJsonl, WritesOneLinePerSnapshot) {
  const std::string path =
      testing::TempDir() + "/cellscope_replay_metrics_" +
      std::to_string(::getpid()) + ".jsonl";
  std::remove(path.c_str());
  ThreadPool pool(2);
  StreamIngestor ingestor(StreamConfig{.n_shards = 2, .queue_capacity = 0});
  ReplayOptions options;
  options.batch_size = 64;
  options.metrics_interval_ms = 1;
  options.metrics_jsonl_path = path;
  const auto stats = replay_trace(sample_logs(512), ingestor, pool, options);
  ASSERT_GE(stats.metrics_snapshots, 1u);  // at least the final line

  std::ifstream in(path);
  std::ostringstream contents;
  contents << in.rdbuf();
  EXPECT_EQ(count_occurrences(contents.str(), "\n"), stats.metrics_snapshots);
  std::remove(path.c_str());
}

TEST(ReplayMetricsJsonl, FullDiskIsLoggedOnceAndTheReplayCompletes) {
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  auto& logger = obs::Logger::instance();
  const auto saved_level = logger.level();
  const std::string log_path = testing::TempDir() +
                               "/cellscope_replay_full_" +
                               std::to_string(::getpid()) + ".log";
  std::remove(log_path.c_str());
  logger.set_stderr(false);
  logger.set_level(obs::LogLevel::kWarn);
  logger.set_file(log_path);

  ThreadPool pool(2);
  StreamIngestor ingestor(StreamConfig{.n_shards = 2, .queue_capacity = 0});
  ReplayOptions options;
  options.batch_size = 64;  // many batches, so many scrape attempts
  options.metrics_interval_ms = 1;
  options.metrics_jsonl_path = "/dev/full";
  const auto logs = sample_logs(4096);
  const auto stats = replay_trace(logs, ingestor, pool, options);

  logger.close_file();
  logger.set_level(saved_level);
  logger.set_stderr(true);
  std::ifstream in(log_path);
  std::ostringstream log;
  log << in.rdbuf();
  std::remove(log_path.c_str());

  EXPECT_EQ(stats.records, logs.size());
  EXPECT_EQ(stats.ingest.accepted, logs.size());
  EXPECT_EQ(stats.metrics_snapshots, 0u);
  EXPECT_EQ(count_occurrences(log.str(),
                              "event=stream.metrics_jsonl_write_failed"),
            1u)
      << log.str();
}

}  // namespace
}  // namespace cellscope
