#include "logm/wal.hpp"

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace dla::logm {

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t len) {
  static const auto table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c = table[(c ^ data[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

namespace walio {

void append_frame(const std::string& path, std::uint8_t op,
                  const net::Bytes& payload) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  if (!out) throw std::runtime_error("walio: cannot open " + path);
  net::Bytes crc_input;
  crc_input.push_back(op);
  crc_input.insert(crc_input.end(), payload.begin(), payload.end());
  std::uint32_t crc = crc32(crc_input.data(), crc_input.size());
  std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  std::uint8_t header[9];
  for (int i = 0; i < 4; ++i) header[i] = static_cast<std::uint8_t>(len >> (8 * i));
  for (int i = 0; i < 4; ++i) header[4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  header[8] = op;
  out.write(reinterpret_cast<const char*>(header), sizeof(header));
  out.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size()));
  out.flush();
  if (!out) throw std::runtime_error("walio: write failed on " + path);
}

ReplayStats replay_frames(
    const std::string& path,
    const std::function<void(std::uint8_t, net::Reader&)>& apply) {
  ReplayStats stats;
  std::ifstream in(path, std::ios::binary);
  if (!in) return stats;  // fresh log
  for (;;) {
    std::uint8_t header[9];
    in.read(reinterpret_cast<char*>(header), sizeof(header));
    if (in.gcount() < static_cast<std::streamsize>(sizeof(header))) {
      if (in.gcount() > 0) ++stats.corrupt_skipped;  // torn header
      break;
    }
    std::uint32_t len = 0, crc = 0;
    for (int i = 0; i < 4; ++i) len |= std::uint32_t(header[i]) << (8 * i);
    for (int i = 0; i < 4; ++i) crc |= std::uint32_t(header[4 + i]) << (8 * i);
    std::uint8_t op = header[8];
    if (len > (64u << 20)) {  // implausible frame: corrupt length
      ++stats.corrupt_skipped;
      break;
    }
    net::Bytes payload(len);
    in.read(reinterpret_cast<char*>(payload.data()), len);
    if (in.gcount() < static_cast<std::streamsize>(len)) {
      ++stats.corrupt_skipped;  // torn payload
      break;
    }
    net::Bytes crc_input;
    crc_input.push_back(op);
    crc_input.insert(crc_input.end(), payload.begin(), payload.end());
    if (crc32(crc_input.data(), crc_input.size()) != crc) {
      ++stats.corrupt_skipped;
      // A corrupt frame invalidates everything after it — the write was
      // not acknowledged, so recovery stops here.
      break;
    }
    net::Reader r(payload);
    try {
      apply(op, r);
      // Trailing bytes after a CRC-valid frame mean the writer and this
      // reader disagree on the record layout — treat it like corruption
      // rather than silently ignoring the residue.
      r.expect_end();
    } catch (const net::CodecError&) {
      ++stats.corrupt_skipped;
      break;
    }
    ++stats.replayed;
    stats.intact_bytes += sizeof(header) + len;
  }
  return stats;
}

bool sync_file(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    bool ok = ::fsync(fd) == 0;
    ::close(fd);
    return ok;
  }
  return false;
#else
  (void)path;  // best-effort: no fsync equivalent wired up
  return false;
#endif
}

bool sync_parent_dir(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  namespace fs = std::filesystem;
  fs::path parent = fs::path(path).parent_path();
  if (parent.empty()) parent = ".";
  int fd = ::open(parent.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    bool ok = ::fsync(fd) == 0;
    ::close(fd);
    return ok;
  }
  return false;
#else
  (void)path;
  return false;
#endif
}

}  // namespace walio

}  // namespace dla::logm
