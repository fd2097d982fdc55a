// Pluggable trace codecs: one reader/writer interface over the two trace
// formats, CSV text and the columnar binary.
//
// Callers pick a format with an explicit TraceCodec or let kAuto route
// by extension: ".csv" is the text format, ".ctb"/".bin" the columnar
// binary (traffic/columnar.h), read through the chunk walk over the
// mapped, indexed reader (traffic/trace_mmap.h). The streaming interface
// hands out bounded batches, so every consumer — conversion tools, the stream
// replay harness, tests — can process a trace far larger than RAM
// without ever holding more than one batch of records.
//
// read_trace/write_trace are the whole-file conveniences.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "traffic/trace_record.h"

namespace cellscope {

/// Format selector. kAuto routes by file extension.
enum class TraceCodec {
  kAuto,    ///< by extension: .csv -> kCsv, .ctb/.bin -> kBinary
  kCsv,     ///< text CSV with a header row
  kBinary,  ///< columnar binary, read through the mapped, indexed reader
};

/// The codec kAuto resolves to for `path` in read position.
TraceCodec trace_codec_for_path(const std::string& path);

/// Streaming record source. next_batch() fills a caller-owned vector
/// (cleared first; capacity reused) and returns false once the trace is
/// exhausted — after which the per-file accounting (reject counters,
/// quality verdicts, corrupt-chunk counts) has been recorded.
class TraceReader {
 public:
  virtual ~TraceReader() = default;

  /// Next batch of records; false at end of stream (out left empty).
  virtual bool next_batch(std::vector<TrafficLog>& out) = 0;

  /// Total records in the trace when the format indexes it (columnar
  /// reader); nullopt for CSV, which only knows at EOF.
  virtual std::optional<std::uint64_t> record_count() const {
    return std::nullopt;
  }
};

/// Streaming record sink. finish() finalizes the file (footer index for
/// the columnar writer); the destructor finishes best-effort.
class TraceWriter {
 public:
  virtual ~TraceWriter() = default;
  virtual void append(std::span<const TrafficLog> logs) = 0;
  virtual void finish() = 0;
};

/// Opens a streaming reader; `batch_records` bounds batch sizes for the
/// CSV reader (the columnar reader batches per chunk). Throws IoError when
/// the file cannot be opened or its structure is invalid.
std::unique_ptr<TraceReader> open_trace_reader(
    const std::string& path, TraceCodec codec = TraceCodec::kAuto,
    std::size_t batch_records = 65536);

/// Opens a streaming writer; `chunk_records` sizes columnar chunks (the
/// CSV writer ignores it).
std::unique_ptr<TraceWriter> open_trace_writer(
    const std::string& path, TraceCodec codec = TraceCodec::kAuto,
    std::size_t chunk_records = 65536);

/// Whole-file read through the selected codec. CSV: malformed rows (wrong
/// column count, non-numeric fields) and out-of-range rows (32-bit field
/// overflow, end_minute < start_minute) are skipped and counted on
/// cellscope.io.rejected_lines, and every read records a
/// "trace_reject_ratio" verdict that fails above 1% rejected lines.
/// Columnar: corrupt chunks are skipped and counted (ChunkWalk). Semantic
/// cleaning (duplicates, conflicts) remains the pipeline cleaner's job.
std::vector<TrafficLog> read_trace(const std::string& path,
                                   TraceCodec codec = TraceCodec::kAuto);

/// Whole-file write through the selected codec.
void write_trace(const std::string& path, const std::vector<TrafficLog>& logs,
                 TraceCodec codec = TraceCodec::kAuto);

}  // namespace cellscope
