// The pluggable codec layer (traffic/trace_codec.h): extension routing,
// CSV vs columnar read identity, csv -> bin -> csv byte identity, a
// systematic corruption sweep over the binary format — every bit flip
// and truncation must end in IoError or skip-and-count, never a crash —
// and the per-file .ctb accounting, the same whether a file is read or
// replayed.
#include "traffic/trace_codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "mapred/thread_pool.h"
#include "obs/metrics.h"
#include "obs/quality.h"
#include "stream/ingestor.h"
#include "stream/replay.h"
#include "traffic/columnar.h"
#include "traffic/trace_mmap.h"

namespace cellscope {
namespace {

class TraceCodecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("cs_codec_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  std::filesystem::path dir_;
};

std::vector<TrafficLog> sample_logs(std::size_t n) {
  Rng rng(11);
  std::vector<TrafficLog> logs;
  logs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    TrafficLog log;
    log.user_id = static_cast<std::uint64_t>(rng.uniform_int(0, 99999));
    log.tower_id = static_cast<std::uint32_t>(rng.uniform_int(0, 199));
    log.start_minute = static_cast<std::uint32_t>(rng.uniform_int(0, 40000));
    log.end_minute =
        log.start_minute + static_cast<std::uint32_t>(rng.uniform_int(0, 60));
    log.bytes = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 20));
    log.address = i % 4 == 0 ? "Plaza Mayor, 4" : "";
    logs.push_back(std::move(log));
  }
  return logs;
}

std::string slurp(const std::string& file) {
  std::ifstream in(file, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void spit(const std::string& file, const std::string& bytes) {
  std::ofstream out(file, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST_F(TraceCodecTest, RoutesByExtension) {
  EXPECT_EQ(trace_codec_for_path("trace.csv"), TraceCodec::kCsv);
  EXPECT_EQ(trace_codec_for_path("/data/day01.ctb"), TraceCodec::kBinary);
  EXPECT_EQ(trace_codec_for_path("day01.bin"), TraceCodec::kBinary);
  EXPECT_EQ(trace_codec_for_path("noext"), TraceCodec::kCsv);
  EXPECT_EQ(trace_codec_for_path("weird.tsv"), TraceCodec::kCsv);
}

TEST_F(TraceCodecTest, CsvAndColumnarReadIdenticalRecords) {
  const auto logs = sample_logs(4000);
  write_trace(path("t.csv"), logs);
  write_trace(path("t.ctb"), logs);

  EXPECT_EQ(read_trace(path("t.csv"), TraceCodec::kCsv), logs);
  EXPECT_EQ(read_trace(path("t.ctb"), TraceCodec::kBinary), logs);
}

TEST_F(TraceCodecTest, StreamingReadersBatchAndReportCounts) {
  const auto logs = sample_logs(1000);
  write_trace(path("t.ctb"), logs, TraceCodec::kBinary);

  auto reader = open_trace_reader(path("t.ctb"), TraceCodec::kBinary);
  ASSERT_TRUE(reader->record_count().has_value());
  EXPECT_EQ(*reader->record_count(), logs.size());

  std::vector<TrafficLog> all, batch;
  while (reader->next_batch(batch))
    all.insert(all.end(), batch.begin(), batch.end());
  EXPECT_EQ(all, logs);
  EXPECT_FALSE(reader->next_batch(batch));  // stays exhausted

  write_trace(path("t.csv"), logs);
  auto csv_reader = open_trace_reader(path("t.csv"), TraceCodec::kCsv, 128);
  EXPECT_FALSE(csv_reader->record_count().has_value());
  all.clear();
  std::size_t batches = 0;
  while (csv_reader->next_batch(batch)) {
    EXPECT_LE(batch.size(), 128u);
    ++batches;
    all.insert(all.end(), batch.begin(), batch.end());
  }
  EXPECT_EQ(all, logs);
  EXPECT_GE(batches, logs.size() / 128);
}

TEST_F(TraceCodecTest, CsvToBinToCsvIsByteIdentical) {
  const auto logs = sample_logs(2500);
  write_trace(path("a.csv"), logs, TraceCodec::kCsv);
  write_trace(path("a.ctb"), read_trace(path("a.csv")), TraceCodec::kBinary);
  write_trace(path("b.csv"), read_trace(path("a.ctb")), TraceCodec::kCsv);
  EXPECT_EQ(slurp(path("a.csv")), slurp(path("b.csv")));
}

TEST_F(TraceCodecTest, BitFlipSweepNeverCrashes) {
  constexpr std::size_t kChunk = 64;
  const auto logs = sample_logs(200);  // chunks of 64, 64, 64 and 8
  write_trace_bin(path("good.ctb"), logs, kChunk);
  const std::string good = slurp(path("good.ctb"));
  ASSERT_GT(good.size(), columnar::kHeaderBytes + columnar::kTrailerBytes);

  const obs::Counter& corrupt = *columnar::io_metrics().chunks_corrupt;
  std::size_t io_errors = 0, skipped_reads = 0, clean_reads = 0;
  for (std::size_t pos = 0; pos < good.size(); ++pos) {
    std::string bad = good;
    bad[pos] = static_cast<char>(bad[pos] ^ (1 << (pos % 8)));
    spit(path("bad.ctb"), bad);
    const auto corrupt_before = corrupt.value();
    try {
      const auto decoded = read_trace(path("bad.ctb"), TraceCodec::kBinary);
      // Oracle: the original records with whole chunks removed, in
      // order, and one corrupt-chunk count per chunk removed.
      std::size_t at = 0;
      std::size_t removed = 0;
      for (std::size_t begin = 0; begin < logs.size(); begin += kChunk) {
        const std::size_t len = std::min(kChunk, logs.size() - begin);
        if (at + len <= decoded.size() &&
            std::equal(logs.begin() + begin, logs.begin() + begin + len,
                       decoded.begin() + at))
          at += len;
        else
          ++removed;
      }
      EXPECT_EQ(at, decoded.size()) << "flip at byte " << pos;
      EXPECT_EQ(corrupt.value() - corrupt_before, removed)
          << "flip at byte " << pos;
      if (removed == 0)
        ++clean_reads;
      else
        ++skipped_reads;
    } catch (const IoError&) {
      ++io_errors;  // structural damage: header / footer / trailer
    }
  }
  // The sweep must exercise both failure modes: chunk-level skips (CRC)
  // and file-level rejection (header/footer damage).
  EXPECT_GT(io_errors, 0u);
  EXPECT_GT(skipped_reads, 0u);
  SUCCEED() << clean_reads << " clean, " << skipped_reads << " skipped, "
            << io_errors << " rejected";
}

TEST_F(TraceCodecTest, TruncationSweepNeverCrashes) {
  const auto logs = sample_logs(200);
  write_trace_bin(path("good.ctb"), logs, 64);
  const std::string good = slurp(path("good.ctb"));

  for (std::size_t len = 0; len < good.size(); ++len) {
    spit(path("cut.ctb"), good.substr(0, len));
    // Any truncation removes the trailer, so the file must be rejected
    // as structurally damaged.
    EXPECT_THROW(read_trace(path("cut.ctb"), TraceCodec::kBinary), IoError)
        << "truncated to " << len;
  }
}

TEST_F(TraceCodecTest, CorruptChunkIsSkippedAndCounted) {
  const auto logs = sample_logs(256);
  write_trace_bin(path("t.ctb"), logs, 64);  // 4 chunks
  std::string bytes = slurp(path("t.ctb"));

  // Flip one payload byte of the second chunk: CRC must catch it, the
  // other three chunks must still decode.
  MmapTraceReader index_only(path("t.ctb"));
  ASSERT_EQ(index_only.chunk_count(), 4u);
  const auto& entry = index_only.chunk(1);
  const std::size_t victim = entry.offset + columnar::kChunkHeaderBytes + 3;
  bytes[victim] = static_cast<char>(bytes[victim] ^ 0x40);
  spit(path("t.ctb"), bytes);

  const auto corrupt_before = columnar::io_metrics().chunks_corrupt->value();
  const auto decoded = read_trace(path("t.ctb"), TraceCodec::kBinary);
  EXPECT_EQ(decoded.size(), logs.size() - entry.n_records);
  EXPECT_EQ(columnar::io_metrics().chunks_corrupt->value(),
            corrupt_before + 1);

  std::vector<TrafficLog> expected = logs;
  expected.erase(expected.begin() + 64, expected.begin() + 128);
  EXPECT_EQ(decoded, expected);
}

/// What one .ctb pass leaves behind: the trace_chunk_corrupt_ratio
/// verdicts and the trace_reads/trace_records deltas.
struct Accounting {
  std::vector<obs::QualityVerdict> verdicts;
  std::uint64_t reads = 0;
  std::uint64_t records = 0;
};

template <class Pass>
Accounting account(Pass&& pass) {
  auto& board = obs::QualityBoard::instance();
  auto& registry = obs::MetricsRegistry::instance();
  obs::Counter& reads = registry.counter("cellscope.io.trace_reads");
  obs::Counter& records = registry.counter("cellscope.io.trace_records");
  board.clear();
  const auto reads_before = reads.value();
  const auto records_before = records.value();
  pass();
  Accounting out;
  for (auto& verdict : board.verdicts())
    if (verdict.check == "trace_chunk_corrupt_ratio")
      out.verdicts.push_back(std::move(verdict));
  out.reads = reads.value() - reads_before;
  out.records = records.value() - records_before;
  board.clear();
  return out;
}

TEST_F(TraceCodecTest, ReplayAndReadRecordTheSameChunkAccounting) {
  // 8 chunks of 64 records, minutes ascending; chunk 2 fails its CRC:
  // 1 of 8 chunks (12.5 %) is far past the 1 % bound.
  std::vector<TrafficLog> logs;
  for (std::uint32_t i = 0; i < 512; ++i)
    logs.push_back({i, i % 16, 100 * i, 100 * i + 5, 1000 + i, ""});
  write_trace_bin(path("t.ctb"), logs, 64);
  std::string bytes = slurp(path("t.ctb"));
  const auto victim = MmapTraceReader(path("t.ctb")).chunk(2);
  bytes[victim.offset + columnar::kChunkHeaderBytes + 5] ^= 0x10;
  spit(path("t.ctb"), bytes);

  ThreadPool pool(2);
  const auto replay = [&](const ReplayOptions& options) {
    return account([&] {
      StreamIngestor ingestor(StreamConfig{.n_shards = 2, .queue_capacity = 0});
      replay_trace_file(path("t.ctb"), ingestor, pool, options);
    });
  };
  const Accounting read =
      account([&] { read_trace(path("t.ctb"), TraceCodec::kBinary); });
  const Accounting replayed = replay({});

  ASSERT_EQ(read.verdicts.size(), 1u);
  EXPECT_EQ(read.verdicts[0].stage, "io.read_trace");
  EXPECT_FALSE(read.verdicts[0].passed);
  EXPECT_DOUBLE_EQ(read.verdicts[0].value, 1.0 / 8);
  EXPECT_EQ(read.reads, 1u);
  EXPECT_EQ(read.records, logs.size() - 64);

  ASSERT_EQ(replayed.verdicts.size(), 1u);
  EXPECT_EQ(replayed.verdicts[0].stage, read.verdicts[0].stage);
  EXPECT_EQ(replayed.verdicts[0].passed, read.verdicts[0].passed);
  EXPECT_EQ(replayed.verdicts[0].value, read.verdicts[0].value);
  EXPECT_EQ(replayed.verdicts[0].detail, read.verdicts[0].detail);
  EXPECT_EQ(replayed.reads, read.reads);
  EXPECT_EQ(replayed.records, read.records);

  // The ratio is over the chunks the filter lets through: minutes up to
  // 19,100 touch chunks 0-2 only, one of which is corrupt.
  ReplayOptions sliced;
  sliced.filter.max_minute = 19100;
  const Accounting filtered = replay(sliced);
  ASSERT_EQ(filtered.verdicts.size(), 1u);
  EXPECT_DOUBLE_EQ(filtered.verdicts[0].value, 1.0 / 3);
  EXPECT_EQ(filtered.records, 128u);
}

}  // namespace
}  // namespace cellscope
