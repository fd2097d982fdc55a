// Ingest-path identity (DESIGN.md §10): the same trace file replayed
// through the CSV offer path, the columnar chunks offered record by
// record (a loop written out here), and the fused bulk ingest_columns
// path must leave the ingestor in bit-identical state — same per-tower grids, same lifetime counters (late/stale
// included) — across shard counts. This is what licenses the fast path:
// it is an optimization, not a different semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/time_grid.h"
#include "obs/metrics.h"
#include "mapred/thread_pool.h"
#include "stream/ingestor.h"
#include "stream/replay.h"
#include "traffic/columnar.h"
#include "traffic/trace_codec.h"
#include "traffic/trace_mmap.h"

namespace cellscope {
namespace {

class IngestIdentityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("cs_ingest_identity_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);

    // Roughly time-ordered feed with local skew and a late tail, so the
    // watermark/late/stale accounting the paths must agree on is
    // actually exercised. The perturbed order is baked into the files:
    // every path reads the identical record sequence.
    Rng rng(2024);
    constexpr std::uint64_t kGridMinutes =
        TimeGrid::kSlots * TimeGrid::kSlotMinutes;
    const std::size_t n = 30000;
    logs_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      TrafficLog log;
      log.user_id = static_cast<std::uint64_t>(rng.uniform_int(0, 9999));
      log.tower_id = static_cast<std::uint32_t>(rng.uniform_int(0, 63));
      const auto base = i * kGridMinutes / n;
      log.start_minute = static_cast<std::uint32_t>(std::min<std::uint64_t>(
          kGridMinutes - 1,
          base + static_cast<std::uint64_t>(rng.uniform_int(0, 30))));
      log.end_minute = log.start_minute +
                       static_cast<std::uint32_t>(rng.uniform_int(0, 15));
      log.bytes = static_cast<std::uint64_t>(rng.uniform_int(100, 100000));
      logs_.push_back(log);
    }
    ReplayOptions perturb;
    perturb.seed = 7;
    perturb.skew_window = 512;
    perturb.late_fraction = 0.03;
    logs_ = perturb_arrival_order(std::move(logs_), perturb);

    csv_path_ = path("trace.csv");
    bin_path_ = path("trace.ctb");
    write_trace(csv_path_, logs_);
    write_trace_bin(bin_path_, logs_, 4096);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::vector<TrafficLog> logs_;
  std::string csv_path_;
  std::string bin_path_;

 private:
  std::filesystem::path dir_;
};

using TowerGrids = std::vector<std::pair<std::uint32_t, std::vector<double>>>;

TowerGrids grids_of(const StreamIngestor& ingestor) {
  TowerGrids grids;
  auto ids = ingestor.tower_ids();
  std::sort(ids.begin(), ids.end());
  for (const auto id : ids)
    grids.emplace_back(id, ingestor.window_copy(id).raw_vector());
  return grids;
}

void expect_same_ingest(const IngestStats& a, const IngestStats& b) {
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.late, b.late);
  EXPECT_EQ(a.stale, b.stale);
  EXPECT_EQ(a.watermark_minute, b.watermark_minute);
  EXPECT_EQ(a.low_watermark_minute, b.low_watermark_minute);
}

TEST_F(IngestIdentityTest, CsvOfferAndBulkPathsAgreeAcrossShardCounts) {
  ThreadPool pool(2);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3},
                                   std::size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const StreamConfig config{.n_shards = shards, .queue_capacity = 0};

    StreamIngestor via_csv(config);
    StreamIngestor via_offer(config);
    StreamIngestor via_bulk(config);

    // CSV always offers; a columnar replay always goes through
    // ingest_columns; the columnar offer side is the chunk loop below.
    const auto csv_stats = replay_trace_file(csv_path_, via_csv, pool);
    const auto bulk_stats = replay_trace_file(bin_path_, via_bulk, pool);
    MmapTraceReader reader(bin_path_);
    std::vector<TrafficLog> chunk;
    std::size_t offered = 0;
    for (std::size_t i = 0; i < reader.chunk_count(); ++i) {
      ASSERT_TRUE(reader.read_chunk(i, chunk));
      via_offer.offer_batch(chunk);
      via_offer.drain(pool);
      offered += chunk.size();
    }

    EXPECT_EQ(csv_stats.records, logs_.size());
    EXPECT_EQ(offered, logs_.size());
    EXPECT_EQ(bulk_stats.records, logs_.size());
    EXPECT_GT(csv_stats.ingest.late, 0u);  // the contract has teeth

    expect_same_ingest(csv_stats.ingest, via_offer.stats());
    expect_same_ingest(csv_stats.ingest, bulk_stats.ingest);

    const auto reference = grids_of(via_csv);
    EXPECT_EQ(reference.size(), 64u);
    EXPECT_EQ(grids_of(via_offer), reference);
    EXPECT_EQ(grids_of(via_bulk), reference);
  }
}

TEST_F(IngestIdentityTest, ShardCountDoesNotChangeBulkIngestState) {
  ThreadPool pool(2);
  StreamIngestor one(StreamConfig{.n_shards = 1, .queue_capacity = 0});
  StreamIngestor four(StreamConfig{.n_shards = 4, .queue_capacity = 0});
  const auto stats_one = replay_trace_file(bin_path_, one, pool);
  const auto stats_four = replay_trace_file(bin_path_, four, pool);
  expect_same_ingest(stats_one.ingest, stats_four.ingest);
  EXPECT_EQ(grids_of(one), grids_of(four));
}

TEST_F(IngestIdentityTest, ChunkFilterSkipsAndAppliesOnlyOverlaps) {
  ThreadPool pool(2);
  MmapTraceReader reader(bin_path_);
  ASSERT_GT(reader.chunk_count(), 4u);

  // A time slice covering only the middle of the feed: the index must
  // prune the leading/trailing chunks wholesale.
  ReplayOptions options;
  options.filter.min_minute = 15000;
  options.filter.max_minute = 20000;

  std::uint64_t expected_records = 0;
  std::size_t expected_skipped = 0;
  for (std::size_t i = 0; i < reader.chunk_count(); ++i) {
    if (reader.chunk_overlaps(i, options.filter))
      expected_records += reader.chunk(i).n_records;
    else
      ++expected_skipped;
  }
  ASSERT_GT(expected_skipped, 0u);
  ASSERT_LT(expected_records, logs_.size());

  const auto skipped_before = columnar::io_metrics().chunks_skipped->value();
  StreamIngestor ingestor(StreamConfig{.n_shards = 2, .queue_capacity = 0});
  const auto stats = replay_trace_file(bin_path_, ingestor, pool, options);
  EXPECT_EQ(stats.records, expected_records);
  EXPECT_EQ(stats.ingest.accepted, expected_records);
  EXPECT_EQ(columnar::io_metrics().chunks_skipped->value(),
            skipped_before + expected_skipped);

  // Pruning is chunk-granular: the surviving state equals replaying
  // exactly the records of the overlapping chunks.
  StreamIngestor reference(StreamConfig{.n_shards = 2, .queue_capacity = 0});
  std::vector<TrafficLog> kept, chunk;
  for (std::size_t i = 0; i < reader.chunk_count(); ++i) {
    if (!reader.chunk_overlaps(i, options.filter)) continue;
    ASSERT_TRUE(reader.read_chunk(i, chunk));
    kept.insert(kept.end(), chunk.begin(), chunk.end());
  }
  replay_trace(kept, reference, pool);
  EXPECT_EQ(grids_of(ingestor), grids_of(reference));
}

}  // namespace
}  // namespace cellscope
