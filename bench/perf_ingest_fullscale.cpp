// Perf: full-scale trace ingest — the out-of-core columnar path vs the
// CSV text path at city scale (9,600 towers at the default
// CELLSCOPE_TOWERS=800; the trace scales with the tower count so quick
// mode stays cheap). The ISSUE-8 target is >= 10x replay throughput for
// the mmap+bulk path over CSV: the binary path skips text parsing, maps
// chunks zero-copy, decodes only the four ingest columns, and applies
// them through the fused ingest_columns scatter instead of the offer
// queue. The time-slice case shows the footer index pruning chunks
// wholesale.
#include <benchmark/benchmark.h>

#include "bench_common.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/time_grid.h"
#include "mapred/thread_pool.h"
#include "stream/ingestor.h"
#include "stream/replay.h"
#include "traffic/columnar.h"
#include "traffic/trace_codec.h"
#include "traffic/trace_mmap.h"

namespace {

using namespace cellscope;

/// The shared on-disk trace pair (same records, both codecs), built once
/// per process and deleted at exit. 12x the bench tower count reproduces
/// the paper's ~9,600-tower deployment at the default scale; 250 records
/// per tower keeps full scale at ~2.4M records.
struct FullscaleTrace {
  std::string csv_path;
  std::string ctb_path;
  std::size_t records = 0;
  std::uint32_t towers = 0;

  FullscaleTrace() {
    towers = static_cast<std::uint32_t>(cellscope::bench::bench_towers() * 12);
    records = static_cast<std::size_t>(towers) * 250;
    const auto dir = std::filesystem::temp_directory_path();
    const std::string stem =
        "cs_fullscale_" + std::to_string(::getpid());
    csv_path = (dir / (stem + ".csv")).string();
    ctb_path = (dir / (stem + ".ctb")).string();

    Rng rng(cellscope::bench::bench_seed());
    constexpr std::uint64_t kGridMinutes =
        TimeGrid::kSlots * TimeGrid::kSlotMinutes;
    std::vector<TrafficLog> logs;
    logs.reserve(records);
    for (std::size_t i = 0; i < records; ++i) {
      TrafficLog log;
      log.user_id = static_cast<std::uint64_t>(rng.uniform_int(0, 999999));
      log.tower_id = static_cast<std::uint32_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(towers) - 1));
      const auto base = i * kGridMinutes / records;
      log.start_minute = static_cast<std::uint32_t>(std::min<std::uint64_t>(
          kGridMinutes - 1,
          base + static_cast<std::uint64_t>(rng.uniform_int(0, 30))));
      log.end_minute = log.start_minute +
                       static_cast<std::uint32_t>(rng.uniform_int(0, 15));
      log.bytes = static_cast<std::uint64_t>(rng.uniform_int(100, 200000));
      logs.push_back(log);
    }
    write_trace(csv_path, logs, TraceCodec::kCsv);
    write_trace(ctb_path, logs, TraceCodec::kBinary);
  }
  ~FullscaleTrace() {
    std::error_code ec;
    std::filesystem::remove(csv_path, ec);
    std::filesystem::remove(ctb_path, ec);
  }
};

const FullscaleTrace& trace() {
  static FullscaleTrace shared;
  return shared;
}

void run_replay(benchmark::State& state, const std::string& path,
                const ReplayOptions& options) {
  ThreadPool pool(default_thread_count());
  std::size_t records = 0;
  for (auto _ : state) {
    StreamIngestor ingestor(StreamConfig{.n_shards = 4, .queue_capacity = 0});
    const auto stats = replay_trace_file(path, ingestor, pool, options);
    benchmark::DoNotOptimize(stats.ingest.accepted);
    records = stats.records;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records) *
                          state.iterations());
  state.counters["towers"] = static_cast<double>(trace().towers);
}

/// Baseline: the text path — parse every CSV line, offer, drain.
void BM_FullscaleCsvIngest(benchmark::State& state) {
  run_replay(state, trace().csv_path, ReplayOptions{});
}
BENCHMARK(BM_FullscaleCsvIngest)->Unit(benchmark::kMillisecond);

/// Columnar file through the offer/drain path, with the chunk loop
/// written out here (full-record decode, offer_batch, drain): isolates
/// the decode win (no text parsing) from the fused-apply win.
void BM_FullscaleBinOfferIngest(benchmark::State& state) {
  ThreadPool pool(default_thread_count());
  std::size_t records = 0;
  for (auto _ : state) {
    StreamIngestor ingestor(StreamConfig{.n_shards = 4, .queue_capacity = 0});
    MmapTraceReader reader(trace().ctb_path);
    std::vector<TrafficLog> chunk;
    records = 0;
    for (std::size_t i = 0; i < reader.chunk_count(); ++i) {
      if (!reader.read_chunk(i, chunk)) continue;
      ingestor.offer_batch(chunk);
      ingestor.drain(pool);
      records += chunk.size();
    }
    benchmark::DoNotOptimize(ingestor.stats().accepted);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records) *
                          state.iterations());
  state.counters["towers"] = static_cast<double>(trace().towers);
}
BENCHMARK(BM_FullscaleBinOfferIngest)->Unit(benchmark::kMillisecond);

/// The full fast path: mmap chunks, column-selective decode, fused
/// ingest_columns — the >= 10x-over-CSV configuration.
void BM_FullscaleMmapBulkIngest(benchmark::State& state) {
  run_replay(state, trace().ctb_path, ReplayOptions{});
}
BENCHMARK(BM_FullscaleMmapBulkIngest)->Unit(benchmark::kMillisecond);

/// Chunk skipping: a one-day time slice of the feed — the footer index
/// prunes every chunk outside the window without touching its pages.
/// items/sec counts only the records actually applied.
void BM_FullscaleMmapTimeSlice(benchmark::State& state) {
  constexpr std::uint32_t kDayMinutes = 24 * 60;
  ReplayOptions options;
  options.filter.min_minute = 7 * kDayMinutes;
  options.filter.max_minute = 8 * kDayMinutes - 1;
  run_replay(state, trace().ctb_path, options);
}
BENCHMARK(BM_FullscaleMmapTimeSlice)->Unit(benchmark::kMillisecond);

}  // namespace

CELLSCOPE_BENCH_JSON("perf_ingest_fullscale");
