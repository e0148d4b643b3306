// Tests for the segment engine's write-ahead log (wal.log): replay on
// reopen, crash recovery semantics (torn/corrupt tails), erase frames,
// per-frame fsync, and that recovery cuts a bad tail off before new frames
// are appended behind it.
#include "logm/wal.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "logm/storage_engine.hpp"

namespace dla::logm {
namespace {

namespace fs = std::filesystem;

struct WalFixture : ::testing::Test {
  WalFixture() {
    dir = fs::temp_directory_path() /
          ("dla_wal_test_" + std::to_string(::getpid()) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir);
    wal = (dir / "wal.log").string();
  }
  ~WalFixture() override {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  // Manual sealing keeps every mutation in wal.log; the default sync mode
  // fsyncs each acknowledged frame.
  SegmentEngine open() const {
    SegmentEngine::Options opts;
    opts.memtable_max_records = 0;
    return SegmentEngine(dir.string(), opts);
  }

  Fragment frag(Glsn glsn, std::int64_t time) {
    Fragment f;
    f.glsn = glsn;
    f.attrs = {{"Time", Value(time)}, {"id", Value("U1")}};
    return f;
  }

  // Replays wal.log without applying anything, for its frame counts.
  walio::ReplayStats scan_wal() const {
    return walio::replay_frames(wal, [](std::uint8_t op, net::Reader& r) {
      if (op == walio::kOpPut) {
        (void)Fragment::decode(r);
      } else {
        (void)r.u64();
      }
    });
  }

  // Flips one byte in the middle of the log: with three equal-size frames
  // it lands inside the second frame's payload.
  void flip_middle_byte() const {
    const auto offset = static_cast<std::streamoff>(fs::file_size(wal) / 2);
    std::fstream f(wal, std::ios::binary | std::ios::in | std::ios::out);
    char byte = 0;
    f.seekg(offset);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0xFF);
    f.seekp(offset);
    f.write(&byte, 1);
  }

  fs::path dir;
  std::string wal;
};

TEST_F(WalFixture, FreshStoreIsEmpty) {
  SegmentEngine eng = open();
  EXPECT_EQ(eng.size(), 0u);
  EXPECT_EQ(scan_wal().replayed, 0u);
}

TEST_F(WalFixture, PutSurvivesReopen) {
  {
    SegmentEngine eng = open();
    eng.put(frag(1, 100));
    eng.put(frag(2, 200));
  }
  EXPECT_EQ(scan_wal().replayed, 2u);
  SegmentEngine reopened = open();
  EXPECT_EQ(reopened.size(), 2u);
  ASSERT_TRUE(reopened.fetch(2).has_value());
  EXPECT_EQ(reopened.fetch(2)->attrs.at("Time").as_int(), 200);
}

TEST_F(WalFixture, EraseSurvivesReopen) {
  {
    SegmentEngine eng = open();
    eng.put(frag(1, 100));
    eng.put(frag(2, 200));
    EXPECT_TRUE(eng.erase(1));
    EXPECT_FALSE(eng.erase(99));  // unknown glsn: no frame written
  }
  EXPECT_EQ(scan_wal().replayed, 3u);
  SegmentEngine reopened = open();
  EXPECT_EQ(reopened.size(), 1u);
  EXPECT_FALSE(reopened.contains(1));
  EXPECT_TRUE(reopened.contains(2));
}

TEST_F(WalFixture, OverwriteKeepsLatestValue) {
  {
    SegmentEngine eng = open();
    eng.put(frag(1, 100));
    eng.put(frag(1, 999));
  }
  SegmentEngine reopened = open();
  EXPECT_EQ(reopened.size(), 1u);
  EXPECT_EQ(reopened.fetch(1)->attrs.at("Time").as_int(), 999);
}

TEST_F(WalFixture, TornTailIsDroppedCleanly) {
  {
    SegmentEngine eng = open();
    eng.put(frag(1, 100));
    eng.put(frag(2, 200));
  }
  // Simulate a crash mid-append: truncate the last 5 bytes.
  fs::resize_file(wal, fs::file_size(wal) - 5);
  const walio::ReplayStats stats = scan_wal();
  EXPECT_EQ(stats.replayed, 1u);
  EXPECT_EQ(stats.corrupt_skipped, 1u);
  SegmentEngine recovered = open();
  EXPECT_EQ(recovered.size(), 1u);
  EXPECT_TRUE(recovered.contains(1));
  EXPECT_FALSE(recovered.contains(2));
  // Recovery cut the log back to its intact prefix.
  EXPECT_EQ(fs::file_size(wal), stats.intact_bytes);
}

TEST_F(WalFixture, BitFlipInvalidatesFrameAndTail) {
  {
    SegmentEngine eng = open();
    eng.put(frag(1, 100));
    eng.put(frag(2, 200));
    eng.put(frag(3, 300));
  }
  flip_middle_byte();
  const walio::ReplayStats stats = scan_wal();
  EXPECT_EQ(stats.replayed, 1u);
  EXPECT_EQ(stats.corrupt_skipped, 1u);
  // Recovery keeps the prefix before the corruption and drops the rest,
  // including the intact third frame behind it.
  SegmentEngine recovered = open();
  EXPECT_EQ(recovered.size(), 1u);
  EXPECT_TRUE(recovered.contains(1));
  EXPECT_FALSE(recovered.contains(3));
}

// Recovery must cut a bad tail off wal.log: a frame appended behind it is
// acknowledged (and fsynced), yet the next reopen would stop at the same
// tear and lose it.
TEST_F(WalFixture, WriteAfterTornTailRecoverySurvivesReopen) {
  {
    SegmentEngine eng = open();
    eng.put(frag(1, 100));
    eng.put(frag(2, 200));
  }
  fs::resize_file(wal, fs::file_size(wal) - 5);
  {
    SegmentEngine recovered = open();
    ASSERT_EQ(recovered.size(), 1u);
    recovered.put(frag(3, 300));
  }
  SegmentEngine reopened = open();
  EXPECT_EQ(reopened.size(), 2u);
  EXPECT_TRUE(reopened.contains(1));
  EXPECT_TRUE(reopened.contains(3));
  EXPECT_EQ(scan_wal().corrupt_skipped, 0u);
}

TEST_F(WalFixture, WriteAfterBitFlipRecoverySurvivesReopen) {
  {
    SegmentEngine eng = open();
    eng.put(frag(1, 100));
    eng.put(frag(2, 200));
    eng.put(frag(3, 300));
  }
  flip_middle_byte();
  {
    SegmentEngine recovered = open();
    ASSERT_EQ(recovered.size(), 1u);
    recovered.put(frag(4, 400));
  }
  SegmentEngine reopened = open();
  EXPECT_EQ(reopened.size(), 2u);
  EXPECT_TRUE(reopened.contains(1));
  EXPECT_TRUE(reopened.contains(4));
  EXPECT_FALSE(reopened.contains(3));
  EXPECT_EQ(scan_wal().corrupt_skipped, 0u);
}

TEST_F(WalFixture, AppendSyncsEveryAcknowledgedFrame) {
  SegmentEngine eng = open();
  EXPECT_EQ(eng.file_sync_calls(), 0u);
  eng.put(frag(1, 100));
  eng.put(frag(2, 200));
  eng.erase(1);
  // One fsync per acknowledged frame (2 puts + 1 erase): flush() alone
  // leaves frames in the page cache, where a power cut can tear them.
  EXPECT_EQ(eng.file_sync_calls(), 3u);
}

TEST(WalCrc, KnownVector) {
  // CRC32("123456789") = 0xCBF43926 (IEEE).
  const char* s = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(s), 9), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

}  // namespace
}  // namespace dla::logm
