#include "stream/replay.h"

#include <algorithm>
#include <fstream>
#include <memory>
#include <optional>
#include <span>

#include "common/error.h"
#include "common/json.h"
#include "common/rng.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/quality.h"
#include "obs/timer.h"

namespace cellscope {

std::vector<TrafficLog> perturb_arrival_order(std::vector<TrafficLog> logs,
                                              const ReplayOptions& options) {
  CS_CHECK_MSG(options.late_fraction >= 0.0 && options.late_fraction <= 1.0,
               "late_fraction must lie in [0, 1]");
  // Canonical arrival order: by start time, ties broken on the full
  // record so the perturbation is independent of the input permutation.
  std::sort(logs.begin(), logs.end(), [](const TrafficLog& a,
                                         const TrafficLog& b) {
    if (a.start_minute != b.start_minute) return a.start_minute < b.start_minute;
    if (a.tower_id != b.tower_id) return a.tower_id < b.tower_id;
    if (a.user_id != b.user_id) return a.user_id < b.user_id;
    if (a.end_minute != b.end_minute) return a.end_minute < b.end_minute;
    return a.bytes < b.bytes;
  });

  Rng rng(options.seed);
  // Bounded local shuffle: each position swaps with a uniform earlier
  // position at most skew_window back — records drift but never teleport.
  if (options.skew_window > 0) {
    for (std::size_t i = logs.size(); i > 1; --i) {
      const std::size_t hi = i - 1;
      const std::size_t lo =
          hi > options.skew_window ? hi - options.skew_window : 0;
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(static_cast<std::int64_t>(lo),
                          static_cast<std::int64_t>(hi)));
      std::swap(logs[hi], logs[j]);
    }
  }

  // Late tail: a seeded sample of records is pulled out (preserving
  // relative order) and appended after everything else.
  if (options.late_fraction > 0.0) {
    std::vector<TrafficLog> on_time;
    std::vector<TrafficLog> late;
    on_time.reserve(logs.size());
    for (auto& log : logs) {
      if (rng.uniform() < options.late_fraction)
        late.push_back(std::move(log));
      else
        on_time.push_back(std::move(log));
    }
    on_time.insert(on_time.end(), std::make_move_iterator(late.begin()),
                   std::make_move_iterator(late.end()));
    logs = std::move(on_time);
  }
  return logs;
}

namespace {

/// The one replay body behind replay_trace and replay_trace_file.
/// `apply_next()` feeds the next batch to the ingestor and returns the
/// records it applied, or nullopt at end of stream; it runs inside the
/// stream.replay span. Around it: the classify cadence, the periodic
/// metrics scrape, the dropped/late sentinels and the stats epilogue.
template <class ApplyNext>
ReplayStats drive_replay(StreamIngestor& ingestor, ThreadPool& pool,
                         const ReplayOptions& options,
                         const OnlineClassifier* classifier,
                         const std::string& path, ApplyNext&& apply_next) {
  CS_CHECK_MSG(options.batch_size >= 1, "batch_size must be positive");
  ReplayStats stats;

  // Periodic file-based metrics scrape (see ReplayOptions). Opened once;
  // append mode so successive replays accumulate into one timeline.
  const bool scrape = options.metrics_interval_ms > 0 &&
                      !options.metrics_jsonl_path.empty();
  std::ofstream metrics_out;
  if (scrape) {
    metrics_out.open(options.metrics_jsonl_path, std::ios::app);
    if (!metrics_out)
      throw IoError("cannot open metrics JSONL file " +
                    options.metrics_jsonl_path);
  }

  obs::ScopedTimer timer;
  bool metrics_write_failed = false;
  const auto dump_metrics = [&] {
    if (metrics_write_failed) return;
    JsonWriter line;
    line.begin_object();
    line.key("wall_ms").number(timer.elapsed_ms(), JsonNumber::kFixed6);
    line.key("metrics").raw(obs::MetricsRegistry::instance().snapshot_json());
    metrics_out << line.end_object().take() << '\n';
    metrics_out.flush();  // a live tail -f must see complete lines
    if (!metrics_out) {
      // A full disk must not end the replay, but it must not pass
      // silently either: warn once and stop scraping.
      metrics_write_failed = true;
      obs::log_warn("stream.metrics_jsonl_write_failed",
                    {{"path", options.metrics_jsonl_path},
                     {"snapshots_written", stats.metrics_snapshots}});
      return;
    }
    ++stats.metrics_snapshots;
  };
  double next_dump_ms = static_cast<double>(options.metrics_interval_ms);

  {
    obs::StageSpan span("stream.replay", "stream");
    while (const std::optional<std::size_t> applied = apply_next()) {
      stats.records += *applied;
      ++stats.batches;
      if (classifier != nullptr && options.classify_every_batches > 0 &&
          stats.batches % options.classify_every_batches == 0) {
        stats.labels = classifier->classify_all(ingestor, &pool);
        ++stats.classify_passes;
      }
      if (scrape && timer.elapsed_ms() >= next_dump_ms) {
        dump_metrics();
        next_dump_ms =
            timer.elapsed_ms() + static_cast<double>(options.metrics_interval_ms);
      }
    }
    if (classifier != nullptr) {
      stats.labels = classifier->classify_all(ingestor, &pool);
      ++stats.classify_passes;
    }

    // Dropped/late sentinels, evaluated when the stream.replay span
    // closes (one-shot, like the batch pipeline's stage checks).
    auto& board = obs::QualityBoard::instance();
    const auto ingest = ingestor.stats();
    board.add_check(
        "stream.replay", "stream_drop_ratio", obs::Severity::kFail,
        [dropped = ingest.dropped, offered = ingest.offered] {
          return obs::check_reject_ratio(
              static_cast<std::size_t>(dropped),
              static_cast<std::size_t>(offered), 0.01);
        });
    board.add_check(
        "stream.replay", "stream_late_ratio", obs::Severity::kWarn,
        [late = ingest.late, offered = ingest.offered] {
          return obs::check_reject_ratio(static_cast<std::size_t>(late),
                                         static_cast<std::size_t>(offered),
                                         0.25);
        });
    if (!path.empty()) span.annotate({"path", path});
    span.annotate({"records", stats.records});
    span.annotate({"batches", stats.batches});
    span.annotate({"dropped", ingest.dropped});
    span.annotate({"late", ingest.late});
  }

  if (scrape) dump_metrics();  // final state, even for sub-interval replays

  stats.ingest = ingestor.stats();
  stats.wall_ms = timer.elapsed_ms();
  stats.records_per_sec =
      stats.wall_ms > 0.0
          ? static_cast<double>(stats.records) / (stats.wall_ms / 1e3)
          : 0.0;
  return stats;
}

std::size_t offer_and_drain(StreamIngestor& ingestor, ThreadPool& pool,
                            std::span<const TrafficLog> batch) {
  ingestor.offer_batch(batch);
  ingestor.drain(pool);
  return batch.size();
}

}  // namespace

ReplayStats replay_trace(const std::vector<TrafficLog>& logs,
                         StreamIngestor& ingestor, ThreadPool& pool,
                         const ReplayOptions& options,
                         const OnlineClassifier* classifier) {
  std::size_t begin = 0;
  return drive_replay(
      ingestor, pool, options, classifier, {},
      [&]() -> std::optional<std::size_t> {
        if (begin >= logs.size()) return std::nullopt;
        const auto batch = std::span(logs).subspan(
            begin, std::min(options.batch_size, logs.size() - begin));
        begin += batch.size();
        return offer_and_drain(ingestor, pool, batch);
      });
}

ReplayStats replay_trace_file(const std::string& path,
                              StreamIngestor& ingestor, ThreadPool& pool,
                              const ReplayOptions& options,
                              const OnlineClassifier* classifier) {
  const TraceCodec codec = options.codec == TraceCodec::kAuto
                               ? trace_codec_for_path(path)
                               : options.codec;
  // Opened on the first round, inside the stream.replay span, so the
  // reader's io.read_trace span nests under it.
  std::unique_ptr<TraceReader> csv;
  std::vector<TrafficLog> batch;
  std::optional<ChunkWalk> walk;
  DecodedColumns cols;
  return drive_replay(
      ingestor, pool, options, classifier, path,
      [&]() -> std::optional<std::size_t> {
        if (codec == TraceCodec::kCsv) {
          if (!csv)
            csv = open_trace_reader(path, TraceCodec::kCsv, options.batch_size);
          if (!csv->next_batch(batch)) return std::nullopt;
          return offer_and_drain(ingestor, pool, batch);
        }
        if (!walk) walk.emplace(path, options.filter);
        if (!walk->next_columns(cols)) return std::nullopt;
        return ingestor.ingest_columns(cols);
      });
}

}  // namespace cellscope
