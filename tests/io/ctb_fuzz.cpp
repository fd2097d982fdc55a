// ctb_fuzz — deterministic seeded driver for the columnar .ctb reader
// (ctest labels `fuzz` and `io`; no external deps).
//
// Random bit flips almost never get past a CRC, so they never reach the
// column decoder. This driver knows the grammar: each case builds a
// small valid trace (1-4 chunks of 1-24 random records, encoded by the
// real writer), applies one structured mutation and then recomputes
// every CRC the mutation touched — chunk frames and footer — so the
// damage reaches the parser behind the CRC. Mutations:
//
//   varint     one varint of a column (ids, time deltas, byte counts,
//              address lengths) replaced by an interesting value in its
//              canonical, zero-padded, 10-byte, 11-byte or truncated form
//   block      a block length prefix rewritten, or a block grown/shrunk
//              with every length kept consistent
//   count      a frame's n_records rewritten (footer entry matched or not)
//   payload    a frame's payload_len rewritten (footer matched or not)
//   entry      one field of one footer entry rewritten
//   n_chunks   the footer's chunk count rewritten, entries dropped/added
//   trailer    the trailer's footer offset rewritten
//   none       control: must read back the original records exactly
//
// Every case must end in one of three ways: the reader throws IoError
// (structural damage); a chunk is skipped and counted on
// cellscope.io.chunks_corrupt; or a chunk decodes to in-range records —
// as many as its footer entry promises, the same tower/start/end/bytes
// through both decoders, and stable under a re-encode. read_trace must
// agree with the per-chunk reads. Anything else — another exception, a
// miscount, a sanitizer report, an allocation past the driver's 1 GB
// address-space headroom — fails the run.
//
// Usage: ctb_fuzz [cases] [seed]   (defaults: 16000, 20151028)
#include <unistd.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "common/error.h"
#include "ctb_frames.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "traffic/columnar.h"
#include "traffic/trace_codec.h"
#include "traffic/trace_mmap.h"

namespace {

using namespace cellscope;
using namespace cellscope::ctb_test;

enum class Mutation {
  kNone,
  kVarint,
  kBlock,
  kCount,
  kPayload,
  kEntry,
  kChunks,
  kTrailer,
};
constexpr int kMutations = 8;
constexpr const char* kMutationNames[kMutations] = {
    "none", "varint", "block", "count", "payload", "entry", "n_chunks",
    "trailer"};

/// One chunk as the grammar sees it: the claimed count and the six
/// column blocks, each split into its per-record fields (varints; for
/// the address block, length varint + bytes).
struct Chunk {
  std::uint32_t n_records = 0;
  std::array<std::vector<std::string>, 6> fields;

  Blocks blocks() const {
    Blocks out;
    for (int b = 0; b < 6; ++b)
      for (const std::string& f : fields[b]) out[b] += f;
    return out;
  }
};

/// Splits a writer-made frame back into per-record fields.
Chunk parse_chunk(const std::string& frame) {
  Chunk chunk;
  chunk.n_records = get_u32(frame, 4);
  std::size_t at = columnar::kChunkHeaderBytes;
  for (int b = 0; b < 6; ++b) {
    const std::uint32_t len = get_u32(frame, at);
    at += 4;
    const auto* p = reinterpret_cast<const unsigned char*>(frame.data()) + at;
    const auto* end = p + len;
    while (p < end) {
      const auto* begin = p;
      std::uint64_t v = 0;
      varint_decode(&p, end, v);
      if (b == kAddress) p += v;
      chunk.fields[b].emplace_back(reinterpret_cast<const char*>(begin),
                                   static_cast<std::size_t>(p - begin));
    }
    at += len;
  }
  return chunk;
}

class Fuzzer {
 public:
  explicit Fuzzer(std::uint64_t seed) : rng_(seed) {}

  std::uint64_t below(std::uint64_t n) {
    return std::uniform_int_distribution<std::uint64_t>(0, n - 1)(rng_);
  }

  std::vector<TrafficLog> random_records() {
    std::vector<TrafficLog> logs(1 + below(24));
    const std::uint32_t base = static_cast<std::uint32_t>(below(40320));
    for (auto& log : logs) {
      log.user_id = below(4) == 0 ? rng_() : below(100000);
      log.tower_id = static_cast<std::uint32_t>(below(9600));
      log.start_minute = base + static_cast<std::uint32_t>(below(600));
      log.end_minute = log.start_minute + static_cast<std::uint32_t>(below(90));
      log.bytes = below(3) == 0 ? rng_() : below(1 << 20);
      if (below(3) == 0) log.address = "District-" + std::to_string(below(40));
    }
    return logs;
  }

  /// Values at the edges the decoder must police: u32 ids and minutes,
  /// the ±2^32 delta bound (zigzag), the int64 extremes, and the top of
  /// the varint range.
  std::uint64_t interesting() {
    static constexpr std::uint64_t kValues[] = {
        0,
        1,
        2,
        127,
        128,
        (std::uint64_t{1} << 32) - 2,
        (std::uint64_t{1} << 32) - 1,
        std::uint64_t{1} << 32,
        (std::uint64_t{1} << 33) - 2,  // zigzag of 2^32 - 1
        (std::uint64_t{1} << 33) - 1,  // zigzag of -2^32
        std::uint64_t{1} << 33,        // zigzag of 2^32
        (std::uint64_t{1} << 63) - 1,
        std::uint64_t{1} << 63,
        ~std::uint64_t{0} - 1,  // zigzag of INT64_MAX
        ~std::uint64_t{0},      // zigzag of INT64_MIN
    };
    constexpr std::size_t kCount = sizeof(kValues) / sizeof(kValues[0]);
    const std::uint64_t pick = below(kCount + 2);
    if (pick < kCount) return kValues[pick];
    return pick == kCount ? rng_() : below(1 << 16);
  }

  /// `value` as a varint in one of the forms a decoder meets: canonical,
  /// zero-padded to 2-10 bytes (bits past the padded width dropped), the
  /// 11-byte over-long form, or cut short inside a continuation.
  std::string encoding(std::uint64_t value) {
    std::string out;
    switch (below(5)) {
      case 0:
      case 1:
        return varint(value);
      case 2: {  // padded to `len` bytes
        const unsigned len = static_cast<unsigned>(2 + below(9));
        for (unsigned i = 0; i < len; ++i) {
          const unsigned shift = 7 * i;
          unsigned char byte =
              shift < 64 ? static_cast<unsigned char>((value >> shift) & 0x7f)
                         : 0;
          if (i + 1 < len) byte |= 0x80;
          out.push_back(static_cast<char>(byte));
        }
        return out;
      }
      case 3:  // 11 bytes: ten continuation bytes, then a terminator
        out.assign(10, static_cast<char>(0xff));
        out.push_back(static_cast<char>(below(2)));
        return out;
      default:  // truncated: continuation bit on the last byte
        out = varint(value);
        out.back() = static_cast<char>(out.back() | 0x80);
        return out;
    }
  }

  std::uint32_t interesting_u32(std::uint32_t current) {
    switch (below(6)) {
      case 0:
        return 0;
      case 1:
        return current + 1;
      case 2:
        return current - 1;
      case 3:
        return 0xffffffffu;
      case 4:
        return current * 2;
      default:
        return static_cast<std::uint32_t>(rng_());
    }
  }

  std::mt19937_64& rng() { return rng_; }

 private:
  std::mt19937_64 rng_;
};

/// The file a case reads: the chunks serialized with every CRC valid,
/// after `mutation` edited the grammar (or, for the footer-level
/// mutations, the serialized bytes).
std::string build_case(Fuzzer& fz, Mutation mutation,
                       std::vector<Chunk> chunks) {
  const std::size_t victim_index = fz.below(chunks.size());
  Chunk& victim = chunks[victim_index];
  const std::uint32_t true_count = victim.n_records;
  // Whether the footer entry follows a frame-header rewrite, and whether
  // a block mutation rewrites a raw length prefix.
  const bool match_footer = fz.below(2) == 0;
  const bool raw_prefix = fz.below(3) == 0;

  switch (mutation) {
    case Mutation::kVarint: {
      const int b = static_cast<int>(fz.below(6));
      auto& fields = victim.fields[b];
      std::string& field = fields[fz.below(fields.size())];
      const std::string replacement = fz.encoding(fz.interesting());
      if (b == kAddress) {
        // Replace only the length varint; the address bytes stay.
        const auto* begin = reinterpret_cast<const unsigned char*>(field.data());
        const auto* p = begin;
        std::uint64_t len = 0;
        varint_decode(&p, begin + field.size(), len);
        field = replacement + field.substr(static_cast<std::size_t>(p - begin));
      } else {
        field = replacement;
      }
      break;
    }
    case Mutation::kBlock: {
      if (raw_prefix) break;  // rewritten in the serialized frame below
      auto& fields = victim.fields[fz.below(6)];
      if (fz.below(2) == 0)
        fields.pop_back();  // a block one field short
      else
        fields.push_back(varint(fz.interesting()));  // one field long
      break;
    }
    case Mutation::kCount: {
      // Around the true count, at the payload bound, or anywhere.
      std::uint64_t block_bytes = 0;
      for (const std::string& block : victim.blocks())
        block_bytes += block.size();
      const std::uint32_t bound = static_cast<std::uint32_t>(block_bytes / 6);
      switch (fz.below(3)) {
        case 0:
          victim.n_records = victim.n_records - 1 +
                             static_cast<std::uint32_t>(fz.below(3));
          break;
        case 1:
          victim.n_records = bound + static_cast<std::uint32_t>(fz.below(2));
          break;
        default:
          victim.n_records = fz.interesting_u32(victim.n_records);
          break;
      }
      break;
    }
    default:
      break;
  }

  std::vector<std::string> frames;
  for (const Chunk& chunk : chunks)
    frames.push_back(frame_from_blocks(chunk.n_records, chunk.blocks()));
  std::string& frame = frames[victim_index];
  if (mutation == Mutation::kPayload) {
    put_u32(frame, 8, fz.interesting_u32(get_u32(frame, 8)));
    // Reseal where the claimed length still puts the CRC inside the frame.
    if (get_u32(frame, 8) <= frame.size() - columnar::kChunkHeaderBytes -
                                  columnar::kChunkCrcBytes)
      reseal_frame(frame);
  }
  if (mutation == Mutation::kBlock && raw_prefix) {
    std::size_t at = columnar::kChunkHeaderBytes;
    for (auto c = fz.below(6); c > 0; --c) at += 4 + get_u32(frame, at);
    put_u32(frame, at, fz.interesting_u32(get_u32(frame, at)));
    reseal_frame(frame);
  }

  std::string file = file_from_frames(frames, [&](auto& entries) {
    auto& entry = entries[victim_index];
    // file_from_frames copied the (rewritten) frame header; an entry not
    // told to follow it keeps the true count and payload length.
    if (!match_footer) {
      entry.n_records = true_count;
      entry.payload_len = static_cast<std::uint32_t>(
          frame.size() - columnar::kChunkHeaderBytes -
          columnar::kChunkCrcBytes);
    }
    if (mutation == Mutation::kEntry) {
      switch (fz.below(7)) {
        case 0:
          entry.offset = fz.below(2) ? entry.offset + 1 : fz.rng()();
          break;
        case 1:
          entry.payload_len = fz.interesting_u32(entry.payload_len);
          break;
        case 2:
          entry.n_records = fz.interesting_u32(entry.n_records);
          break;
        case 3:
          entry.min_tower = fz.interesting_u32(entry.min_tower);
          break;
        case 4:
          entry.max_tower = fz.interesting_u32(entry.max_tower);
          break;
        case 5:
          entry.min_minute = fz.interesting_u32(entry.min_minute);
          break;
        default:
          entry.max_minute = fz.interesting_u32(entry.max_minute);
          break;
      }
    }
    if (mutation == Mutation::kChunks) {
      switch (fz.below(3)) {
        case 0:
          entries.pop_back();
          break;
        case 1:
          entries.push_back(entries.back());
          break;
        default:
          entries.clear();
          break;
      }
    }
  });

  if (mutation == Mutation::kTrailer) {
    const std::size_t at = file.size() - columnar::kTrailerBytes;
    std::uint64_t offset = 0;
    std::memcpy(&offset, file.data() + at, sizeof(offset));
    const std::uint64_t choices[] = {0,
                                     7,
                                     8,
                                     offset - 1,
                                     offset + 1,
                                     file.size(),
                                     ~std::uint64_t{0},
                                     fz.rng()()};
    offset = choices[fz.below(8)];
    std::memcpy(file.data() + at, &offset, sizeof(offset));
  }
  return file;
}

void spit(const std::string& file, const std::string& bytes) {
  std::ofstream out(file, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Outcomes of one mutation kind.
struct Tally {
  std::size_t cases = 0;
  std::size_t rejected = 0;  // files rejected with IoError
  std::size_t corrupt = 0;   // chunks skipped and counted
  std::size_t decoded = 0;   // chunks read as in-range records
  std::size_t changed = 0;   // ...whose records differ from the original

  void add(const Tally& o) {
    cases += o.cases;
    rejected += o.rejected;
    corrupt += o.corrupt;
    decoded += o.decoded;
    changed += o.changed;
  }
};

bool same_columns(const DecodedColumns& cols,
                  const std::vector<TrafficLog>& logs) {
  if (cols.size() != logs.size()) return false;
  for (std::size_t i = 0; i < logs.size(); ++i)
    if (cols.tower[i] != logs[i].tower_id ||
        cols.start[i] != logs[i].start_minute ||
        cols.end[i] != logs[i].end_minute || cols.bytes[i] != logs[i].bytes)
      return false;
  return true;
}

/// Re-encoding decoded records and decoding them again must give them
/// back: the values are representable in the format.
bool reencodes(const std::vector<TrafficLog>& logs) {
  if (logs.empty()) return true;
  std::string frame;
  columnar::ChunkIndexEntry entry;
  columnar::encode_chunk(logs, frame, entry);
  std::vector<TrafficLog> again;
  return columnar::decode_chunk_records(
             reinterpret_cast<const unsigned char*>(frame.data()),
             frame.size(), again) &&
         again == logs;
}

/// Reads `path` every way the library offers and checks the outcome
/// against the contract. Returns an empty string or the failure.
std::string check_case(const std::string& path, Mutation mutation,
                       const std::vector<std::vector<TrafficLog>>& originals,
                       Tally& tally) {
  const obs::Counter& corrupt = *columnar::io_metrics().chunks_corrupt;
  std::vector<TrafficLog> expected;
  try {
    const MmapTraceReader reader(path);
    for (std::size_t i = 0; i < reader.chunk_count(); ++i) {
      DecodedColumns cols;
      std::vector<TrafficLog> records;
      const auto before = corrupt.value();
      const bool by_columns = reader.read_chunk_columns(i, cols);
      const bool by_records = reader.read_chunk(i, records);
      const auto counted = corrupt.value() - before;
      if (counted != std::uint64_t{!by_columns} + std::uint64_t{!by_records})
        return "chunk " + std::to_string(i) + ": corrupt count off";
      if (by_records && !by_columns)
        return "chunk " + std::to_string(i) +
               ": records decode where columns do not";
      if (!by_columns) {
        ++tally.corrupt;
        continue;
      }
      if (cols.size() != reader.chunk(i).n_records)
        return "chunk " + std::to_string(i) + ": " +
               std::to_string(cols.size()) + " records, footer says " +
               std::to_string(reader.chunk(i).n_records);
      if (!by_records) {  // the user or address block is what is broken
        ++tally.corrupt;
        continue;
      }
      if (!same_columns(cols, records))
        return "chunk " + std::to_string(i) + ": decoders disagree";
      if (!reencodes(records))
        return "chunk " + std::to_string(i) + ": records do not re-encode";
      ++tally.decoded;
      if (i >= originals.size() || records != originals[i]) ++tally.changed;
      expected.insert(expected.end(), records.begin(), records.end());
    }
  } catch (const IoError&) {
    ++tally.rejected;
    try {
      (void)read_trace(path, TraceCodec::kBinary);
      return "read_trace accepted a file the reader rejects";
    } catch (const IoError&) {
      return "";
    }
  }
  if (read_trace(path, TraceCodec::kBinary) != expected)
    return "read_trace differs from the per-chunk reads";
  if (mutation == Mutation::kNone) {
    std::vector<TrafficLog> all;
    for (const auto& chunk : originals)
      all.insert(all.end(), chunk.begin(), chunk.end());
    if (expected != all) return "control case lost records";
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  const long cases = argc > 1 ? std::strtol(argv[1], nullptr, 10) : 16000;
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 20151028;
  cap_address_space(std::uint64_t{1} << 30);
  // Every corrupt chunk logs a warning; thousands would bury a failure.
  obs::Logger::instance().set_level(obs::LogLevel::kOff);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("cs_ctb_fuzz_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "case.ctb").string();

  Fuzzer fz(seed);
  Tally tallies[kMutations];
  int failures = 0;
  for (long c = 0; c < cases; ++c) {
    const auto mutation = static_cast<Mutation>(c % kMutations);
    std::vector<std::vector<TrafficLog>> originals(1 + fz.below(4));
    std::vector<Chunk> chunks;
    for (auto& logs : originals) {
      logs = fz.random_records();
      std::string frame;
      columnar::ChunkIndexEntry entry;
      columnar::encode_chunk(logs, frame, entry);
      chunks.push_back(parse_chunk(frame));
    }
    Tally& tally = tallies[static_cast<int>(mutation)];
    std::string message;
    try {
      spit(path, build_case(fz, mutation, std::move(chunks)));
      message = check_case(path, mutation, originals, tally);
    } catch (const std::exception& e) {
      message = std::string("unexpected exception: ") + e.what();
    }
    ++tally.cases;
    if (!message.empty()) {
      std::fprintf(stderr, "FAIL case %ld (%s): %s\n", c,
                   kMutationNames[static_cast<int>(mutation)],
                   message.c_str());
      ++failures;
    }
  }
  std::filesystem::remove_all(dir);

  Tally total;
  for (int m = 0; m < kMutations; ++m) {
    const Tally& t = tallies[m];
    std::printf("  %-8s %5zu cases: %5zu rejected, %5zu corrupt chunks, "
                "%5zu chunks decoded (%zu changed)\n",
                kMutationNames[m], t.cases, t.rejected, t.corrupt, t.decoded,
                t.changed);
    total.add(t);
  }
  // The sweep has teeth only if every outcome happened.
  if (total.rejected == 0 || total.corrupt == 0 || total.changed == 0) {
    std::fprintf(stderr, "FAIL: an outcome never occurred\n");
    ++failures;
  }
  std::printf("ctb_fuzz: %ld cases, seed %llu: %s\n", cases,
              static_cast<unsigned long long>(seed),
              failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}
