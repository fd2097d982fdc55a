// replay_city — the bulk side of the live path: the city's 28-day trace
// (one record per tower-slot, in a skewed arrival order) replayed from a
// columnar .ctb file into a fresh StreamIngestor, then every tower
// classified. Exercises traffic/ decode and stream/ apply and classify;
// clustering and server/ do no work after set-up.
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>

#include "city.h"
#include "common/stats.h"
#include "layers.h"
#include "mapred/thread_pool.h"
#include "obs/metrics.h"
#include "pipeline/traffic_matrix.h"
#include "stream/ingestor.h"
#include "stream/replay.h"
#include "traffic/columnar.h"
#include "traffic/trace_mmap.h"
#include "workloads.h"

namespace perfbench {

using namespace cellscope;

namespace {

using Labels = std::vector<std::pair<std::uint32_t, Classification>>;

/// Removes the scratch trace on every exit path.
struct ScratchFile {
  std::string path;
  ~ScratchFile() {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
};

bool same_labels(const Labels& a, const Labels& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& [ia, ca] = a[i];
    const auto& [ib, cb] = b[i];
    if (ia != ib || ca.cluster != cb.cluster || ca.region != cb.region ||
        ca.cold_start != cb.cold_start || ca.distance != cb.distance)
      return false;
  }
  return true;
}

std::size_t agreement(const Labels& labels, const TrainedCity& city) {
  std::size_t same = 0;
  for (const auto& [id, c] : labels)
    if (id < city.batch_label_of_tower.size() &&
        city.batch_label_of_tower[id] == static_cast<int>(c.cluster))
      ++same;
  return same;
}

/// Towers on which the nearest centroid of the tower's own 28 days (the
/// records' bytes, z-scored and folded to a week, squared distance,
/// lowest index on ties) is the batch clustering's label: how often a
/// correct stream path agrees with the batch labels on this city. Computed
/// here, apart from the ingestor and the classifier it checks.
std::size_t reference_agreement(const TrainedCity& city) {
  const auto& centroids = city.model.centroids;
  std::size_t same = 0;
  for (std::size_t r = 0; r < city.bytes.size(); ++r) {
    const std::vector<double> raw(city.bytes[r].begin(), city.bytes[r].end());
    const auto folded = fold_to_week({zscore(raw)}).front();
    std::size_t best = 0;
    double best_d = 0.0;
    for (std::size_t c = 0; c < centroids.size(); ++c) {
      double d = 0.0;
      for (std::size_t s = 0; s < folded.size(); ++s) {
        const double diff = folded[s] - centroids[c][s];
        d += diff * diff;
      }
      if (c == 0 || d < best_d) {
        best = c;
        best_d = d;
      }
    }
    if (city.batch_label_of_tower[city.tower_ids[r]] == static_cast<int>(best))
      ++same;
  }
  return same;
}

struct PassOutput {
  Labels labels;
  std::uint64_t records = 0;
  std::uint64_t dropped = 0;
  std::uint64_t corrupt = 0;
};

/// The replay as users run it: replay_trace_file (mmap, column decode,
/// fused ingest_columns), then classify_all. Times both halves.
PassOutput replay_pass(const std::string& path,
                       const OnlineClassifier& classifier, ThreadPool& pool,
                       double& ingest_s, double& classify_s) {
  PassOutput out;
  StreamIngestor ingestor{StreamConfig{}};
  const auto corrupt_before = columnar::io_metrics().chunks_corrupt->value();
  const auto t0 = Clock::now();
  const ReplayStats stats = replay_trace_file(path, ingestor, pool);
  const auto t1 = Clock::now();
  out.labels = classifier.classify_all(ingestor, &pool);
  const auto t2 = Clock::now();
  ingest_s = seconds_between(t0, t1);
  classify_s = seconds_between(t1, t2);
  out.records = stats.records;
  out.dropped = stats.ingest.dropped;
  out.corrupt = columnar::io_metrics().chunks_corrupt->value() - corrupt_before;
  return out;
}

/// The same pass with the chunk loop written out, each call under its
/// layer span.
PassOutput traced_replay_pass(const std::string& path,
                              const OnlineClassifier& classifier,
                              ThreadPool& pool, LayerPasses& layers) {
  PassOutput out;
  StreamIngestor ingestor{StreamConfig{}};
  std::unique_ptr<MmapTraceReader> reader;
  std::size_t chunks = 0;
  {
    Span pass("replay.pass");
    {
      Span span("traffic.decode");
      reader = std::make_unique<MmapTraceReader>(path);
    }
    DecodedColumns cols;
    for (std::size_t i = 0; i < reader->chunk_count(); ++i) {
      bool ok = false;
      {
        Span span("traffic.decode");
        ok = reader->read_chunk_columns(i, cols);
      }
      if (!ok) {
        ++out.corrupt;
        continue;
      }
      ++chunks;
      Span span("stream.apply");
      out.records += ingestor.ingest_columns(cols);
    }
    Span span("stream.classify");
    out.labels = classifier.classify_all(ingestor, &pool);
  }
  const IngestStats stats = ingestor.stats();
  out.dropped = stats.dropped;
  std::size_t cold = 0;
  for (const auto& [id, c] : out.labels) cold += c.cold_start ? 1 : 0;
  layers.add_counts(
      {{"traffic.chunks", static_cast<double>(chunks)},
       {"traffic.bytes_mapped", static_cast<double>(reader->bytes_mapped())},
       {"stream.records_applied", static_cast<double>(out.records)},
       {"stream.late", static_cast<double>(stats.late)},
       {"stream.stale", static_cast<double>(stats.stale)},
       {"stream.cold_starts", static_cast<double>(cold)}});
  return out;
}

}  // namespace

Result run_replay_city(const Options& options) {
  Result result;
  ThreadPool pool(configured_thread_count());

  // Set-up: train the model (the process's first batch pass) and write
  // the 28-day trace.
  const TrainedCity city = train_city(options.seed);
  const OnlineClassifier classifier(city.model);
  const ScratchFile trace{options.work_dir + "/replay_city_" +
                          std::to_string(::getpid()) + ".ctb"};
  const std::uint64_t n_records =
      write_city_trace(city, options.seed, trace.path);
  result.set("setup_s", seconds_between(process_start(), Clock::now()), "s");
  if (options.setup_only) return result;
  result.info["records"] = std::to_string(n_records);
  result.info["trace_mb"] = std::to_string(
      static_cast<double>(std::filesystem::file_size(trace.path)) / 1e6);

  LayerPasses layers;
  if (options.trace) traced_training_pass(city, pool, layers, result);

  std::vector<double> pass_s;
  std::vector<double> ingest_s;
  std::vector<double> classify_s;
  std::vector<double> traced_s;
  Labels ref;
  std::size_t min_agreement = city.tower_ids.size();
  const auto check_pass = [&](const PassOutput& out, const std::string& what) {
    ++result.attempted;
    bool ok = out.records == n_records && out.dropped == 0 && out.corrupt == 0;
    result.check(out.records == n_records,
                 what + ": applied " + std::to_string(out.records) + " of " +
                     std::to_string(n_records) + " records");
    result.check(out.dropped == 0, what + ": dropped records");
    result.check(out.corrupt == 0, what + ": corrupt chunks");
    if (ref.empty()) ref = out.labels;
    const bool same = same_labels(out.labels, ref);
    result.check(same, what + ": labels differ from the first pass");
    const std::size_t agree = agreement(out.labels, city);
    min_agreement = std::min(min_agreement, agree);
    if (!(ok && same)) ++result.failed;
  };

  const auto start = Clock::now();
  int pass = 0;
  while (seconds_between(start, Clock::now()) < options.seconds ||
         pass_s.size() < 3 || (options.trace && traced_s.size() < 3)) {
    double ingest = 0.0;
    double classify = 0.0;
    check_pass(replay_pass(trace.path, classifier, pool, ingest, classify),
               "replay pass " + std::to_string(pass));
    ingest_s.push_back(ingest);
    classify_s.push_back(classify);
    pass_s.push_back(ingest + classify);
    if (options.trace) {
      const auto before = pool.stats();
      tracer().set_pass(pass);
      tracer().set_enabled(true);
      const auto t0 = Clock::now();
      const PassOutput out =
          traced_replay_pass(trace.path, classifier, pool, layers);
      traced_s.push_back(seconds_between(t0, Clock::now()));
      tracer().set_enabled(false);
      layers.add_pool_delta(before, pool.stats());
      check_pass(out, "traced replay pass " + std::to_string(pass));
    }
    ++pass;
  }

  // Nearest-centroid labels of the replayed windows against the batch
  // clustering's labels: they must agree at least as often as the
  // reference nearest-centroid labels of the same 28 days do.
  const std::size_t want = reference_agreement(city);
  const bool agree_ok = min_agreement >= want;
  ++result.attempted;
  if (!agree_ok) ++result.failed;
  result.check(agree_ok, "stream labels agree with batch labels on " +
                             std::to_string(min_agreement) + " of " +
                             std::to_string(ref.size()) +
                             " towers, the reference on " +
                             std::to_string(want));
  result.info["reference_agreement"] =
      std::to_string(want) + "/" + std::to_string(ref.size());
  result.info["batch_agreement"] =
      std::to_string(min_agreement) + "/" + std::to_string(ref.size());
  result.set("replay_s", median(pass_s), "s");
  result.set("replay_ingest_s", median(ingest_s), "s");
  result.set("replay_classify_s", median(classify_s), "s");
  result.info["replay_passes"] = std::to_string(pass_s.size());
  if (options.trace) {
    layers.report(result);
    report_trace_totals(result, "replay.pass", median(traced_s),
                        median(pass_s), options, "replay_city");
  }
  result.set("peak_rss_mb", peak_rss_mb(), "MB");
  return result;
}

}  // namespace perfbench
