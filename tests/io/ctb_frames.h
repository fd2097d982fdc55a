// Hand-built columnar (.ctb) frames for the corruption tests and the
// ctb_fuzz driver: chunk frames assembled from raw column blocks with a
// correct CRC, and whole files around them with a correct footer — so a
// damaged field reaches the decoder instead of failing the CRC. Also the
// address-space cap both use as their memory bound.
#pragma once

#include <sys/resource.h>
#include <unistd.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/varint.h"
#include "traffic/columnar.h"

namespace cellscope::ctb_test {

/// The six column blocks of a chunk payload, in layout order.
enum Block { kUser, kTower, kStart, kEnd, kBytes, kAddress };
using Blocks = std::array<std::string, 6>;

inline void put_u32(std::string& out, std::size_t at, std::uint32_t v) {
  std::memcpy(out.data() + at, &v, sizeof(v));  // little-endian hosts
}

inline std::uint32_t get_u32(const std::string& in, std::size_t at) {
  std::uint32_t v = 0;
  std::memcpy(&v, in.data() + at, sizeof(v));
  return v;
}

inline std::string varint(std::uint64_t v) {
  std::string out;
  varint_encode(v, out);
  return out;
}

/// Recomputes the CRC of the chunk frame at `at` in `bytes` (frame
/// length from its own payload_len field).
inline void reseal_frame(std::string& bytes, std::size_t at = 0) {
  const std::uint32_t payload_len = get_u32(bytes, at + 8);
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data()) + at;
  put_u32(bytes, at + columnar::kChunkHeaderBytes + payload_len,
          crc32(p + 4, 8 + payload_len));
}

/// A CRC-valid chunk frame claiming `n_records`, whose payload is exactly
/// `blocks` (each behind its u32 length prefix).
inline std::string frame_from_blocks(std::uint32_t n_records,
                                     const Blocks& blocks) {
  std::string payload;
  for (const std::string& block : blocks) {
    payload.append(4, '\0');
    put_u32(payload, payload.size() - 4,
            static_cast<std::uint32_t>(block.size()));
    payload += block;
  }
  std::string frame(columnar::kChunkHeaderBytes, '\0');
  put_u32(frame, 0, get_u32("CHNK", 0));
  put_u32(frame, 4, n_records);
  put_u32(frame, 8, static_cast<std::uint32_t>(payload.size()));
  frame += payload;
  frame.append(columnar::kChunkCrcBytes, '\0');
  reseal_frame(frame);
  return frame;
}

/// One record per block: user 1, tower 2, start delta `start_zigzag`,
/// end delta `end_zigzag`, 3 bytes, empty address.
inline Blocks one_record(std::uint64_t start_zigzag,
                         std::uint64_t end_zigzag) {
  return {varint(1), varint(2), varint(start_zigzag), varint(end_zigzag),
          varint(3), varint(0)};
}

/// A whole file: header, `frames` in order, and a footer whose entries
/// take each frame's own n_records and payload_len (then `edit` may
/// change them) and pass every chunk filter.
template <class Edit>
std::string file_from_frames(const std::vector<std::string>& frames,
                             Edit&& edit) {
  std::string file = columnar::encode_header();
  std::vector<columnar::ChunkIndexEntry> entries;
  for (const std::string& frame : frames) {
    columnar::ChunkIndexEntry entry;
    entry.offset = file.size();
    entry.n_records = get_u32(frame, 4);
    entry.payload_len = get_u32(frame, 8);
    entry.max_tower = 0xffffffffu;
    entry.max_minute = 0xffffffffu;
    entries.push_back(entry);
    file += frame;
  }
  edit(entries);
  file += columnar::encode_footer(entries, file.size());
  return file;
}

inline std::string file_from_frames(const std::vector<std::string>& frames) {
  return file_from_frames(frames, [](auto&) {});
}

/// Caps this process's address space at its current size plus `extra`
/// bytes, so an allocation sized by a corrupt count fails with bad_alloc
/// instead of paging memory in. Relative to the current size (VmSize),
/// so sanitizer builds, which reserve their shadow memory up front, keep
/// working.
inline void cap_address_space(std::uint64_t extra) {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t pages = 0;
  statm >> pages;
  const rlim_t limit =
      pages * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE)) + extra;
  const rlimit cap{limit, limit};
  ::setrlimit(RLIMIT_AS, &cap);
}

}  // namespace cellscope::ctb_test
