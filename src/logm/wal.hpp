// Write-ahead-log frame I/O for the segment engine's memtable log
// (logm/storage_engine.hpp). Mutations are appended as length-prefixed,
// CRC32-protected frames; recovery replays them in order and stops at the
// first torn or corrupt frame, so a node recovers exactly its acknowledged
// state after a crash.
//
// Frame layout: [u32 len][u32 crc32][u8 op][payload]
//   op 0 = put  (payload: Fragment encoding)
//   op 1 = erase(payload: u64 glsn)
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

#include "net/bytes.hpp"

namespace dla::logm {

// CRC32 (IEEE, reflected) — also used by the tests to corrupt frames.
// `crc` continues the CRC of bytes that came before: crc32(b, n, crc32(a, m))
// is the CRC of a followed by b.
std::uint32_t crc32(const std::uint8_t* data, std::size_t len,
                    std::uint32_t crc = 0);

namespace walio {

constexpr std::uint8_t kOpPut = 0;
constexpr std::uint8_t kOpErase = 1;

// Appends one CRC-protected frame to `log`, a stream the caller holds open on
// the log file, and flushes it to the page cache. Does NOT fsync — callers
// decide when the frame must reach stable storage. Throws std::runtime_error
// on I/O failure.
void append_frame(std::ostream& log, std::uint8_t op,
                  const net::Bytes& payload);

struct ReplayStats {
  std::size_t replayed = 0;         // frames applied
  std::size_t corrupt_skipped = 0;  // torn/corrupt frames (replay stops)
  std::uint64_t intact_bytes = 0;   // length of the applied frame prefix
};

// Replays frames in order, invoking apply(op, payload) per intact frame.
// Stops at the first torn or corrupt frame: a corrupt frame invalidates
// everything after it — the write was never acknowledged. apply throwing
// net::CodecError counts the frame corrupt and stops likewise. A caller
// that keeps appending must first cut the log back to intact_bytes, or the
// next replay stops at the same tear and drops every frame appended since.
ReplayStats replay_frames(
    const std::string& path,
    const std::function<void(std::uint8_t, net::Reader&)>& apply);

// fsync the file / its parent directory. Returns true when an fsync was
// actually issued and succeeded; best-effort no-op (false) on platforms
// without fsync.
bool sync_file(const std::string& path);
bool sync_parent_dir(const std::string& path);

}  // namespace walio

}  // namespace dla::logm
