// Columnar binary trace format (traffic/columnar.h): chunk encode/decode
// round trips, column-selective decode, the footer index ranges, merge by
// verbatim frame copy, whole-file round trips through the mapped reader,
// and the decoder's bounds on CRC-valid but damaged chunks (time deltas,
// record counts).
#include "traffic/columnar.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "ctb_frames.h"
#include "obs/metrics.h"
#include "traffic/trace_codec.h"
#include "traffic/trace_mmap.h"

namespace cellscope {
namespace {

class ColumnarTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("cs_columnar_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  std::filesystem::path dir_;
};

std::vector<TrafficLog> varied_logs(std::size_t n, std::uint64_t seed = 7) {
  Rng rng(seed);
  std::vector<TrafficLog> logs;
  logs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    TrafficLog log;
    log.user_id = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
    log.tower_id = static_cast<std::uint32_t>(rng.uniform_int(0, 9599));
    log.start_minute = static_cast<std::uint32_t>(rng.uniform_int(0, 40319));
    log.end_minute =
        log.start_minute + static_cast<std::uint32_t>(rng.uniform_int(0, 120));
    log.bytes = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
    log.address = i % 3 == 0 ? "" : "District-" + std::to_string(i % 17);
    logs.push_back(std::move(log));
  }
  return logs;
}

TEST_F(ColumnarTest, ChunkRoundTripsRecords) {
  const auto logs = varied_logs(500);
  std::string frame;
  columnar::ChunkIndexEntry entry;
  columnar::encode_chunk(logs, frame, entry);
  EXPECT_EQ(entry.n_records, 500u);
  EXPECT_EQ(frame.size(), entry.frame_len());

  std::vector<TrafficLog> decoded;
  ASSERT_TRUE(columnar::decode_chunk_records(
      reinterpret_cast<const unsigned char*>(frame.data()), frame.size(),
      decoded));
  EXPECT_EQ(decoded, logs);
}

TEST_F(ColumnarTest, ChunkRoundTripsUnorderedTimes) {
  // Zigzag deltas must survive arbitrary (non-monotone) start times.
  std::vector<TrafficLog> logs = varied_logs(64);
  std::reverse(logs.begin(), logs.end());
  std::string frame;
  columnar::ChunkIndexEntry entry;
  columnar::encode_chunk(logs, frame, entry);
  std::vector<TrafficLog> decoded;
  ASSERT_TRUE(columnar::decode_chunk_records(
      reinterpret_cast<const unsigned char*>(frame.data()), frame.size(),
      decoded));
  EXPECT_EQ(decoded, logs);
}

TEST_F(ColumnarTest, ColumnDecodeMatchesRecordFields) {
  const auto logs = varied_logs(300);
  std::string frame;
  columnar::ChunkIndexEntry entry;
  columnar::encode_chunk(logs, frame, entry);
  DecodedColumns cols;
  ASSERT_TRUE(columnar::decode_chunk_columns(
      reinterpret_cast<const unsigned char*>(frame.data()), frame.size(),
      cols));
  ASSERT_EQ(cols.size(), logs.size());
  for (std::size_t i = 0; i < logs.size(); ++i) {
    EXPECT_EQ(cols.tower[i], logs[i].tower_id);
    EXPECT_EQ(cols.start[i], logs[i].start_minute);
    EXPECT_EQ(cols.end[i], logs[i].end_minute);
    EXPECT_EQ(cols.bytes[i], logs[i].bytes);
  }
}

TEST_F(ColumnarTest, IndexEntryTracksMinMaxRanges) {
  const auto logs = varied_logs(200);
  std::string frame;
  columnar::ChunkIndexEntry entry;
  columnar::encode_chunk(logs, frame, entry);
  std::uint32_t min_tower = 0xffffffffu, max_tower = 0;
  std::uint32_t min_minute = 0xffffffffu, max_minute = 0;
  for (const auto& log : logs) {
    min_tower = std::min(min_tower, log.tower_id);
    max_tower = std::max(max_tower, log.tower_id);
    min_minute = std::min(min_minute, log.start_minute);
    max_minute = std::max(max_minute, log.end_minute);
  }
  EXPECT_EQ(entry.min_tower, min_tower);
  EXPECT_EQ(entry.max_tower, max_tower);
  EXPECT_EQ(entry.min_minute, min_minute);
  EXPECT_EQ(entry.max_minute, max_minute);
}

TEST_F(ColumnarTest, FileRoundTripsThroughMappedReader) {
  const auto logs = varied_logs(10000);
  write_trace_bin(path("t.ctb"), logs, 1024);  // several chunks
  EXPECT_EQ(read_trace(path("t.ctb"), TraceCodec::kBinary), logs);

  MmapTraceReader reader(path("t.ctb"));
  EXPECT_EQ(reader.record_count(), logs.size());
  EXPECT_EQ(reader.chunk_count(), 10u);
}

TEST_F(ColumnarTest, EmptyTraceRoundTrips) {
  write_trace_bin(path("empty.ctb"), {});
  const auto logs = read_trace(path("empty.ctb"), TraceCodec::kBinary);
  EXPECT_TRUE(logs.empty());
  MmapTraceReader reader(path("empty.ctb"));
  EXPECT_EQ(reader.chunk_count(), 0u);
}

TEST_F(ColumnarTest, WriterDestructorFinishesFile) {
  const auto logs = varied_logs(100);
  {
    ColumnarTraceWriter writer(path("t.ctb"), 32);
    writer.append(std::span<const TrafficLog>(logs));
    // no finish(): the destructor must flush the tail and the footer
  }
  EXPECT_EQ(read_trace(path("t.ctb"), TraceCodec::kBinary), logs);
}

TEST_F(ColumnarTest, ChunkFilterPrunesByIndexRanges) {
  // Three chunks with disjoint tower ranges; a tower filter must visit
  // only the overlapping chunk.
  std::vector<TrafficLog> logs;
  for (std::uint32_t t = 0; t < 30; ++t)
    logs.push_back({1, t, 100 + t, 100 + t, 10, ""});
  write_trace_bin(path("t.ctb"), logs, 10);
  MmapTraceReader reader(path("t.ctb"));
  ASSERT_EQ(reader.chunk_count(), 3u);

  ChunkFilter filter;
  filter.min_tower = 10;
  filter.max_tower = 19;
  std::size_t visited = 0;
  std::vector<TrafficLog> chunk;
  for (std::size_t i = 0; i < reader.chunk_count(); ++i) {
    if (!reader.chunk_overlaps(i, filter)) continue;
    ++visited;
    ASSERT_TRUE(reader.read_chunk(i, chunk));
    for (const auto& log : chunk)
      EXPECT_TRUE(log.tower_id >= 10 && log.tower_id <= 19);
  }
  EXPECT_EQ(visited, 1u);

  ChunkFilter time_filter;
  time_filter.min_minute = 0;
  time_filter.max_minute = 104;  // overlaps only the first chunk
  visited = 0;
  for (std::size_t i = 0; i < reader.chunk_count(); ++i)
    if (reader.chunk_overlaps(i, time_filter)) ++visited;
  EXPECT_EQ(visited, 1u);
}

TEST_F(ColumnarTest, MergeConcatenatesVerbatim) {
  const auto a = varied_logs(2000, 1);
  const auto b = varied_logs(1500, 2);
  write_trace_bin(path("a.ctb"), a, 512);
  write_trace_bin(path("b.ctb"), b, 512);
  const std::uint64_t merged =
      merge_trace_bin({path("a.ctb"), path("b.ctb")}, path("m.ctb"));
  EXPECT_EQ(merged, a.size() + b.size());

  std::vector<TrafficLog> expected = a;
  expected.insert(expected.end(), b.begin(), b.end());
  EXPECT_EQ(read_trace(path("m.ctb"), TraceCodec::kBinary), expected);

  // Chunk count is the sum — frames were copied, not re-chunked.
  MmapTraceReader ra(path("a.ctb")), rb(path("b.ctb")), rm(path("m.ctb"));
  EXPECT_EQ(rm.chunk_count(), ra.chunk_count() + rb.chunk_count());
}

TEST_F(ColumnarTest, MissingFileThrowsIoError) {
  EXPECT_THROW(MmapTraceReader reader(path("nope.ctb")), IoError);
  EXPECT_THROW(read_trace(path("nope.ctb"), TraceCodec::kBinary), IoError);
}

using namespace ctb_test;

const unsigned char* bytes_of(const std::string& s) {
  return reinterpret_cast<const unsigned char*>(s.data());
}

/// Both decoders' verdict on one frame; they must agree on the columns
/// they share.
bool decodes(const std::string& frame) {
  std::vector<TrafficLog> records;
  DecodedColumns cols;
  const bool by_records =
      columnar::decode_chunk_records(bytes_of(frame), frame.size(), records);
  const bool by_columns =
      columnar::decode_chunk_columns(bytes_of(frame), frame.size(), cols);
  EXPECT_EQ(by_records, by_columns);
  EXPECT_EQ(records.size(), cols.size());
  return by_records && by_columns;
}

void spit(const std::string& file, const std::string& bytes) {
  std::ofstream out(file, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST_F(ColumnarTest, DeltasAtInt64ExtremesAreCorrupt) {
  const std::string valid = frame_from_blocks(1, one_record(10, 4));
  std::vector<TrafficLog> records;
  ASSERT_TRUE(columnar::decode_chunk_records(bytes_of(valid), valid.size(),
                                             records));
  EXPECT_EQ(records, (std::vector<TrafficLog>{{1, 2, 5, 7, 3, ""}}));

  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  for (const std::int64_t delta : {kMax, kMin}) {
    SCOPED_TRACE(delta);
    const std::uint64_t z = zigzag_encode(delta);  // 2^64-2 or 2^64-1
    EXPECT_FALSE(decodes(frame_from_blocks(1, one_record(z, 0))));
    // start = 1, then the end delta: 1 + INT64_MAX must not be added.
    EXPECT_FALSE(decodes(frame_from_blocks(1, one_record(2, z))));
  }
  // The edges of (-2^32, 2^32): a delta of 2^32 - 1 reaches the largest
  // minute, 2^32 and -2^32 are rejected before the add.
  constexpr std::int64_t kLimit = std::int64_t{1} << 32;
  EXPECT_TRUE(decodes(frame_from_blocks(
      1, one_record(zigzag_encode(kLimit - 1), 0))));
  EXPECT_FALSE(
      decodes(frame_from_blocks(1, one_record(zigzag_encode(kLimit), 0))));
  EXPECT_FALSE(decodes(frame_from_blocks(
      1, one_record(zigzag_encode(kLimit - 1), zigzag_encode(-kLimit)))));
  EXPECT_FALSE(
      decodes(frame_from_blocks(1, one_record(zigzag_encode(-1), 0))));
}

TEST_F(ColumnarTest, FrameCountDifferingFromFooterIsSkippedAndCounted) {
  // Chunk 0's frame holds one record; its footer entry promises two (a
  // count its payload could hold). The decoder alone cannot tell; the
  // reader must skip and count the chunk.
  const auto logs = varied_logs(3);
  std::string first, second;
  columnar::ChunkIndexEntry entry;
  columnar::encode_chunk(std::span(logs).subspan(1, 1), first, entry);
  columnar::encode_chunk(std::span(logs).subspan(2, 1), second, entry);
  EXPECT_TRUE(decodes(first));
  spit(path("t.ctb"), file_from_frames({first, second}, [](auto& entries) {
         entries[0].n_records = 2;
       }));

  const auto corrupt_before = columnar::io_metrics().chunks_corrupt->value();
  EXPECT_EQ(read_trace(path("t.ctb"), TraceCodec::kBinary),
            std::vector<TrafficLog>{logs[2]});
  EXPECT_EQ(columnar::io_metrics().chunks_corrupt->value(),
            corrupt_before + 1);
}

TEST_F(ColumnarTest, LeftoverColumnFieldsAreCorrupt) {
  // A frame claiming one record fewer than its blocks hold.
  const auto logs = varied_logs(2);
  std::string frame;
  columnar::ChunkIndexEntry entry;
  columnar::encode_chunk(logs, frame, entry);
  ASSERT_TRUE(decodes(frame));
  put_u32(frame, 4, 1);
  reseal_frame(frame);
  EXPECT_FALSE(decodes(frame));
}

/// 0 when every oversized record count is rejected without allocating
/// for it, else the number of the first check that failed.
int oversized_counts_rejected(const std::string& dir) {
  constexpr std::uint32_t kHuge = 0xffffffffu;
  // One record's payload behind a frame that claims 2^32 - 1 records.
  const std::string liar = frame_from_blocks(kHuge, one_record(0, 0));
  std::vector<TrafficLog> records;
  DecodedColumns cols;
  if (columnar::decode_chunk_records(bytes_of(liar), liar.size(), records))
    return 1;
  if (columnar::decode_chunk_columns(bytes_of(liar), liar.size(), cols))
    return 2;

  // The same claim in a footer entry is structural damage.
  const std::string honest = frame_from_blocks(1, one_record(0, 0));
  const std::string footer_liar = dir + "/footer_liar.ctb";
  spit(footer_liar, file_from_frames({honest}, [](auto& entries) {
         entries[0].n_records = kHuge;
       }));
  try {
    MmapTraceReader reader(footer_liar);
    return 3;
  } catch (const IoError&) {
  }
  try {
    read_trace(footer_liar, TraceCodec::kBinary);
    return 4;
  } catch (const IoError&) {
  }

  // Behind an honest footer entry, the lying frame is a corrupt chunk.
  const std::string frame_liar = dir + "/frame_liar.ctb";
  spit(frame_liar, file_from_frames({liar, honest}, [](auto& entries) {
         entries[0].n_records = 1;
       }));
  const auto corrupt_before = columnar::io_metrics().chunks_corrupt->value();
  if (read_trace(frame_liar, TraceCodec::kBinary).size() != 1) return 5;
  if (columnar::io_metrics().chunks_corrupt->value() != corrupt_before + 1)
    return 6;
  return 0;
}

TEST_F(ColumnarTest, OversizedRecordCountsFailWithoutAllocating) {
  // In a forked child under a 2 GB address-space cap: a decoder that
  // sizes its output from the claimed count throws bad_alloc there
  // instead of exhausting the machine.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string dir = path("");
  EXPECT_EXIT(
      {
        cap_address_space(std::uint64_t{2} << 30);
        std::_Exit(oversized_counts_rejected(dir));
      },
      ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace cellscope
