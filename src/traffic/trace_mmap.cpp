#include "traffic/trace_mmap.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <type_traits>

#include "common/error.h"
#include "common/failpoint.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/quality.h"
#include "obs/timer.h"

namespace cellscope {

using columnar::io_metrics;

namespace {

/// Corrupt-chunk ratio above which a walk's verdict fails — the columnar
/// analogue of the CSV reader's 1% trace_reject_ratio bound.
constexpr double kMaxCorruptRatio = 0.01;

}  // namespace

MmapTraceReader::MmapTraceReader(const std::string& path) : path_(path) {
  if (CS_FAILPOINT("trace.read.fail"))
    throw IoError("failpoint trace.read.fail: refusing to read " + path);
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw IoError("cannot open for reading: " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    throw IoError("cannot stat: " + path);
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ == 0) {
    ::close(fd);
    throw IoError("empty columnar trace file: " + path);
  }
  void* mapped = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping holds its own reference
  if (mapped == MAP_FAILED) throw IoError("mmap failed: " + path);
  data_ = static_cast<const unsigned char*>(mapped);
  // The replay paths walk chunks front to back; tell the kernel so
  // readahead stays ahead of the decode loop.
  ::madvise(mapped, size_, MADV_SEQUENTIAL);

  std::string error;
  if (!columnar::check_header(data_, size_)) {
    ::munmap(mapped, size_);
    data_ = nullptr;
    throw IoError("bad columnar trace header: " + path);
  }
  if (!columnar::parse_footer(data_, size_, index_, error)) {
    ::munmap(mapped, size_);
    data_ = nullptr;
    throw IoError("bad columnar trace footer: " + path + " (" + error + ")");
  }
  for (const auto& entry : index_) record_count_ += entry.n_records;
  io_metrics().bytes_mapped->add(size_);
}

MmapTraceReader::~MmapTraceReader() {
  if (data_ != nullptr)
    ::munmap(const_cast<unsigned char*>(data_), size_);
}

std::span<const unsigned char> MmapTraceReader::chunk_frame(
    std::size_t i) const {
  const auto& entry = index_[i];
  return {data_ + entry.offset, entry.frame_len()};
}

template <class Out>
bool MmapTraceReader::decode(
    std::size_t i, Out& out,
    bool (*decoder)(const unsigned char*, std::size_t, Out&),
    const char* mode) const {
  const auto frame = chunk_frame(i);
  obs::ScopedTimer timer(io_metrics().decode_ms);
  // The frame's own n_records (bytes 4..7, after the magic) must be the
  // count the footer promised: read_trace sizes its output from it.
  std::uint32_t n_records = 0;
  std::memcpy(&n_records, frame.data() + 4, sizeof(n_records));
  if (n_records != index_[i].n_records ||
      !decoder(frame.data(), frame.size(), out)) {
    io_metrics().chunks_corrupt->add(1);
    obs::log_warn("io.chunk_corrupt",
                  {{"path", path_}, {"chunk", i}, {"mode", mode}});
    return false;
  }
  io_metrics().chunks_read->add(1);
  return true;
}

bool MmapTraceReader::read_chunk(std::size_t i,
                                 std::vector<TrafficLog>& out) const {
  out.clear();
  return decode(i, out, columnar::decode_chunk_records, "records");
}

bool MmapTraceReader::read_chunk_columns(std::size_t i,
                                         DecodedColumns& out) const {
  out.clear();
  return decode(i, out, columnar::decode_chunk_columns, "columns");
}

ChunkWalk::ChunkWalk(const std::string& path, const ChunkFilter& filter)
    : reader_(path), filter_(filter) {
  span_.emplace("io.read_trace", "io", obs::LogLevel::kDebug);
}

bool ChunkWalk::next_batch(std::vector<TrafficLog>& out) {
  return next(out);
}

bool ChunkWalk::next_columns(DecodedColumns& out) { return next(out); }

template <class Out>
bool ChunkWalk::next(Out& out) {
  while (next_chunk_ < reader_.chunk_count()) {
    const std::size_t i = next_chunk_++;
    if (!reader_.chunk_overlaps(i, filter_)) {
      io_metrics().chunks_skipped->add(1);
      ++skipped_;
      continue;
    }
    ++visited_;
    bool ok = false;
    if constexpr (std::is_same_v<Out, DecodedColumns>)
      ok = reader_.read_chunk_columns(i, out);
    else
      ok = reader_.read_chunk(i, out);
    if (ok) {
      records_ += out.size();
      return true;
    }
    ++corrupt_;  // skip-and-count
  }
  out.clear();
  finish();
  return false;
}

void ChunkWalk::finish() {
  if (!span_) return;  // already recorded
  auto& registry = obs::MetricsRegistry::instance();
  registry.counter("cellscope.io.trace_reads").add(1);
  registry.counter("cellscope.io.trace_records").add(records_);
  span_->annotate({"records", records_});
  span_->annotate({"chunks", reader_.chunk_count()});
  span_->annotate({"chunks_skipped", skipped_});
  span_->annotate({"corrupt_chunks", corrupt_});
  if (visited_ > 0) {
    auto result = obs::check_reject_ratio(corrupt_, visited_, kMaxCorruptRatio);
    obs::QualityBoard::instance().record(
        {.check = "trace_chunk_corrupt_ratio",
         .stage = "io.read_trace",
         .severity = obs::Severity::kFail,
         .passed = result.passed,
         .value = result.value,
         .detail = std::move(result.detail)});
  }
  span_.reset();
}

std::uint64_t merge_trace_bin(const std::vector<std::string>& inputs,
                              const std::string& output) {
  if (CS_FAILPOINT("trace.write.fail"))
    throw IoError("failpoint trace.write.fail: refusing to write " + output);
  std::ofstream out(output, std::ios::binary | std::ios::trunc);
  if (!out) throw IoError("cannot open for writing: " + output);
  const std::string header = columnar::encode_header();
  out.write(header.data(), static_cast<std::streamsize>(header.size()));

  std::uint64_t offset = header.size();
  std::uint64_t records = 0;
  std::vector<columnar::ChunkIndexEntry> merged;
  for (const std::string& input : inputs) {
    MmapTraceReader reader(input);
    for (std::size_t i = 0; i < reader.chunk_count(); ++i) {
      const auto frame = reader.chunk_frame(i);
      out.write(reinterpret_cast<const char*>(frame.data()),
                static_cast<std::streamsize>(frame.size()));
      columnar::ChunkIndexEntry entry = reader.chunk(i);
      entry.offset = offset;
      merged.push_back(entry);
      offset += frame.size();
      records += entry.n_records;
    }
  }
  const std::string footer = columnar::encode_footer(merged, offset);
  out.write(footer.data(), static_cast<std::streamsize>(footer.size()));
  out.close();
  if (!out) throw IoError("write failed: " + output);
  return records;
}

}  // namespace cellscope
