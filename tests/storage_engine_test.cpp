// Tests for the pluggable storage layer (logm/storage_engine.hpp): the
// segment engine's LSM lifecycle (WAL -> memtable -> sealed mmap'd segments
// -> tiered compaction), reopen recovery, snapshot read transactions with
// compaction pinning, the stalled-reader tracker, shared-segment clones,
// and the central equivalence obligation — every query answers bit-identical
// across {MemoryEngine, SegmentEngine} x {indexed, scan}.
#include "logm/storage_engine.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "audit/local_query.hpp"
#include "audit/metrics.hpp"
#include "audit/query.hpp"
#include "crypto/rng.hpp"
#include "logm/workload.hpp"
#include "workload_gen.hpp"

namespace dla::logm {
namespace {

namespace fs = std::filesystem;

struct EngineFixture : ::testing::Test {
  EngineFixture() {
    dir = fs::temp_directory_path() /
          ("dla_storage_test_" + std::to_string(::getpid()) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir);
  }
  ~EngineFixture() override {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  // Small thresholds so even modest workloads cross seal and compaction
  // boundaries many times.
  SegmentEngine::Options tiny_options() const {
    SegmentEngine::Options opts;
    opts.memtable_max_records = 16;
    opts.compaction_fanout = 3;
    return opts;
  }

  Fragment frag(Glsn glsn, std::int64_t time, const std::string& id) {
    Fragment f;
    f.glsn = glsn;
    f.attrs = {{"Time", Value(time)}, {"id", Value(id)}};
    return f;
  }

  fs::path dir;
};

// ---- lifecycle basics ------------------------------------------------------

TEST_F(EngineFixture, FreshEngineIsEmpty) {
  SegmentEngine eng(dir.string());
  EXPECT_EQ(eng.size(), 0u);
  EXPECT_TRUE(eng.glsns().empty());
  EXPECT_TRUE(eng.segments().empty());
}

TEST_F(EngineFixture, PutFetchEraseAcrossSealBoundaries) {
  SegmentEngine eng(dir.string(), tiny_options());
  for (Glsn g = 1; g <= 100; ++g) {
    eng.put(frag(g, 1000 + static_cast<std::int64_t>(g), "U1"));
  }
  EXPECT_GT(eng.segments().size(), 0u) << "threshold should have sealed";
  EXPECT_EQ(eng.size(), 100u);

  // Point reads hit both tiers.
  for (Glsn g : {Glsn{1}, Glsn{50}, Glsn{100}}) {
    ASSERT_TRUE(eng.contains(g));
    auto got = eng.fetch(g);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->glsn, g);
    EXPECT_EQ(got->attrs.at("Time").as_int(),
              1000 + static_cast<std::int64_t>(g));
  }

  // Overwrite a sealed row: newest version wins.
  eng.put(frag(7, 9999, "U2"));
  EXPECT_EQ(eng.size(), 100u);
  EXPECT_EQ(eng.fetch(7)->attrs.at("id").as_text(), "U2");

  // Erase one sealed and one memtable-resident row.
  EXPECT_TRUE(eng.erase(3));
  EXPECT_FALSE(eng.contains(3));
  EXPECT_FALSE(eng.fetch(3).has_value());
  EXPECT_FALSE(eng.erase(3)) << "double delete reports not-visible";
  EXPECT_EQ(eng.size(), 99u);

  // Ascending visible iteration, newest versions included exactly once.
  std::vector<Glsn> seen;
  eng.for_each([&](const Fragment& f) { seen.push_back(f.glsn); });
  EXPECT_EQ(seen.size(), 99u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  EXPECT_EQ(eng.glsns(), seen);
}

TEST_F(EngineFixture, StateSurvivesReopen) {
  {
    SegmentEngine eng(dir.string(), tiny_options());
    for (Glsn g = 1; g <= 60; ++g) eng.put(frag(g, 100 + g, "U1"));
    eng.put(frag(5, 42, "U9"));
    EXPECT_TRUE(eng.erase(10));
    EXPECT_TRUE(eng.erase(59));  // likely memtable-resident
  }
  SegmentEngine reopened(dir.string(), tiny_options());
  EXPECT_EQ(reopened.size(), 58u);
  EXPECT_FALSE(reopened.contains(10));
  EXPECT_FALSE(reopened.contains(59));
  EXPECT_EQ(reopened.fetch(5)->attrs.at("id").as_text(), "U9");
}

TEST_F(EngineFixture, ManualSealAndCompactConvergeToOneSegment) {
  SegmentEngine::Options opts;
  opts.memtable_max_records = 0;  // manual control
  opts.auto_compact = false;
  SegmentEngine eng(dir.string(), opts);
  for (int round = 0; round < 4; ++round) {
    for (Glsn g = 1; g <= 10; ++g) {
      eng.put(frag(g + static_cast<Glsn>(round) * 10, round, "U1"));
    }
    EXPECT_GT(eng.seal(), 0u);
  }
  EXPECT_EQ(eng.segments().size(), 4u);
  EXPECT_GT(eng.compact(), 0u);
  EXPECT_EQ(eng.segments().size(), 1u);
  EXPECT_EQ(eng.size(), 40u);
  // Input files are gone, output survives a reopen.
  std::size_t seg_files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".dseg") ++seg_files;
  }
  EXPECT_EQ(seg_files, 1u);
  SegmentEngine reopened(dir.string(), opts);
  EXPECT_EQ(reopened.size(), 40u);
}

TEST_F(EngineFixture, OnSealSyncModeBatchesFsyncs) {
  SegmentEngine::Options every = tiny_options();
  SegmentEngine::Options bulk = tiny_options();
  bulk.sync_mode = SegmentEngine::SyncMode::OnSeal;
  std::size_t every_syncs = 0, bulk_syncs = 0;
  {
    SegmentEngine eng((dir / "every").string(), every);
    for (Glsn g = 1; g <= 64; ++g) eng.put(frag(g, g, "U1"));
    every_syncs = eng.file_sync_calls();
  }
  {
    SegmentEngine eng((dir / "bulk").string(), bulk);
    for (Glsn g = 1; g <= 64; ++g) eng.put(frag(g, g, "U1"));
    bulk_syncs = eng.file_sync_calls();
  }
  EXPECT_LT(bulk_syncs, every_syncs);
  SegmentEngine reopened((dir / "bulk").string(), bulk);
  EXPECT_EQ(reopened.size(), 64u);
}

// ---- snapshot read transactions -------------------------------------------

TEST_F(EngineFixture, ReadTxnPinsSegmentsAcrossCompaction) {
  SegmentEngine::Options opts;
  opts.memtable_max_records = 0;
  opts.auto_compact = false;
  opts.compaction_fanout = 3;  // three same-tier segments form one run
  SegmentEngine eng(dir.string(), opts);
  for (int round = 0; round < 3; ++round) {
    for (Glsn g = 1; g <= 8; ++g) {
      eng.put(frag(g + static_cast<Glsn>(round) * 8, round, "U1"));
    }
    eng.seal();
  }
  ASSERT_EQ(eng.segments().size(), 3u);

  std::vector<std::string> pinned_paths;
  {
    SegmentEngine::ReadTxn txn = eng.begin_read(/*now_us=*/1000);
    EXPECT_EQ(eng.txn_tracker().open_count(), 1u);
    for (const auto& seg : txn.segments()) pinned_paths.push_back(seg->path());
    EXPECT_GT(eng.compact(), 0u);
    EXPECT_EQ(eng.segments().size(), 1u);
    // The snapshot still reads the pre-compaction files: every pinned
    // segment stays on disk while the transaction lives.
    for (const std::string& path : pinned_paths) {
      EXPECT_TRUE(fs::exists(path)) << path;
    }
    EXPECT_EQ(txn.segments().size(), 3u);
    std::size_t pinned_rows = 0;
    for (const auto& seg : txn.segments()) pinned_rows += seg->rows();
    EXPECT_EQ(pinned_rows, 24u);
  }
  EXPECT_EQ(eng.txn_tracker().open_count(), 0u);
  // Last pin dropped: the compacted-away inputs are reclaimed.
  for (const std::string& path : pinned_paths) {
    EXPECT_FALSE(fs::exists(path)) << path;
  }
}

TEST_F(EngineFixture, StalledReaderTrackerReportsLongTxns) {
  reset_storage_stats();
  SegmentEngine eng(dir.string());
  auto young = eng.begin_read(/*now_us=*/9'000'000);
  auto old_txn = std::make_unique<SegmentEngine::ReadTxn>(
      eng.begin_read(/*now_us=*/1'000'000));
  EXPECT_EQ(storage_stats().pinned_readers, 2u);

  auto stalled = eng.report_stalled_readers(/*now_us=*/10'000'000,
                                            /*min_age_us=*/5'000'000);
  ASSERT_EQ(stalled.size(), 1u);
  EXPECT_EQ(stalled[0].serial, old_txn->serial());
  EXPECT_EQ(stalled[0].age_us, 9'000'000u);
  EXPECT_EQ(storage_stats().stalled_readers, 1u);

  old_txn.reset();
  EXPECT_TRUE(eng.report_stalled_readers(10'000'000, 5'000'000).empty());
  EXPECT_EQ(storage_stats().pinned_readers, 1u);
}

// ---- shared-segment clones (the O(n) replica-clone fix) --------------------

TEST_F(EngineFixture, CloneSharesSealedSegmentsWithoutRescan) {
  SegmentEngine::Options opts = tiny_options();
  SegmentEngine eng(dir.string(), opts);
  for (Glsn g = 1; g <= 200; ++g) eng.put(frag(g, g, "U1"));
  const std::size_t sealed_rows = 200 - eng.memtable().size();
  ASSERT_GT(sealed_rows, 0u);

  reset_storage_stats();
  std::unique_ptr<SegmentEngine> clone = eng.clone_shared();

  // The clone re-mirrors only the memtable tail; the sealed majority is
  // shared by reference. mirror_rebuild_rows counts every row a
  // FragmentStore columnar rebuild touches, so it must stay bounded by the
  // memtable — the all-in-memory copy would have paid all 200.
  const StorageStats& st = storage_stats();
  EXPECT_EQ(st.clone_shared_segments, eng.segments().size());
  EXPECT_EQ(st.clone_memtable_rows, eng.memtable().size());
  EXPECT_LE(st.mirror_rebuild_rows, eng.memtable().size());
  EXPECT_LT(st.mirror_rebuild_rows, 200u);

  // Same shared_ptr identity, not re-opened copies.
  ASSERT_EQ(clone->segments().size(), eng.segments().size());
  for (std::size_t i = 0; i < eng.segments().size(); ++i) {
    EXPECT_EQ(clone->segments()[i].get(), eng.segments()[i].get());
  }
  EXPECT_EQ(clone->size(), eng.size());
  EXPECT_EQ(clone->glsns(), eng.glsns());

  // Clones are read-only snapshots: durable mutation is a logic error.
  EXPECT_THROW(clone->seal(), std::logic_error);
  EXPECT_THROW(clone->compact(), std::logic_error);
}

// ---- differential: backends and query paths --------------------------------

// Asserts the four-way equivalence on the current engine states.
void expect_query_equivalence(const StorageEngine& memory,
                              const StorageEngine& segment,
                              const std::string& label) {
  const logm::Schema schema = logm::paper_schema();
  for (const std::string& text : testkit::planner_criteria()) {
    const audit::Expr expr = audit::parse(text, schema);
    const auto mem_scan = audit::eval_engine_scan(expr, memory);
    const auto mem_idx = audit::eval_engine_indexed(expr, memory);
    const auto seg_scan = audit::eval_engine_scan(expr, segment);
    const auto seg_idx = audit::eval_engine_indexed(expr, segment);
    EXPECT_EQ(mem_scan, mem_idx) << label << " memory: " << text;
    EXPECT_EQ(mem_scan, seg_scan) << label << " cross-backend scan: " << text;
    EXPECT_EQ(mem_scan, seg_idx) << label << " segment indexed: " << text;
  }
}

// A churny mixed workload (puts, overwrites, deletes) applied identically to
// both backends, with equivalence checked at several points so queries run
// against live memtables, sealed segments, pending tombstones and
// post-compaction states alike.
TEST_F(EngineFixture, DifferentialChurnAcrossBackends) {
  for (std::uint64_t seed : {11u, 23u}) {
    MemoryEngine memory;
    SegmentEngine segment(
        (dir / ("seed" + std::to_string(seed))).string(), tiny_options());

    const auto records = testkit::make_records(seed, 400);
    crypto::ChaCha20Rng rng(seed ^ 0x5eed);
    std::vector<Glsn> live;
    std::size_t step = 0;
    for (const auto& rec : records) {
      Fragment f{rec.glsn, rec.attrs};
      memory.put(f);
      segment.put(std::move(f));
      live.push_back(rec.glsn);
      if (!live.empty() && rng.next_u64() % 4 == 0) {
        // Delete a random live row (may be sealed, may be memtable).
        const std::size_t victim = rng.next_u64() % live.size();
        const Glsn g = live[victim];
        EXPECT_EQ(memory.erase(g), segment.erase(g));
        live.erase(live.begin() + victim);
      } else if (rng.next_u64() % 5 == 0 && !live.empty()) {
        // Overwrite a random live row with mutated attributes.
        const Glsn g = live[rng.next_u64() % live.size()];
        Fragment upd = *memory.fetch(g);
        upd.attrs["C1"] = Value(static_cast<std::int64_t>(rng.next_u64() % 10));
        memory.put(upd);
        segment.put(std::move(upd));
      }
      if (++step % 150 == 0) {
        expect_query_equivalence(memory, segment,
                                 "mid-churn seed " + std::to_string(seed));
      }
    }

    ASSERT_GT(segment.segments().size(), 0u);
    EXPECT_EQ(memory.size(), segment.size());
    EXPECT_EQ(memory.glsns(), segment.glsns());
    for (Glsn g : memory.glsns()) {
      EXPECT_EQ(memory.fetch(g)->canonical(), segment.fetch(g)->canonical());
    }
    expect_query_equivalence(memory, segment,
                             "final seed " + std::to_string(seed));

    // And again after recovery from disk.
    SegmentEngine reopened(
        (dir / ("seed" + std::to_string(seed))).string(), tiny_options());
    EXPECT_EQ(memory.glsns(), reopened.glsns());
    expect_query_equivalence(memory, reopened,
                             "reopened seed " + std::to_string(seed));
  }
}

// Sparse fragments (attributes dropped pseudo-randomly) exercise the
// tri-state missing-attribute semantics through segment columns that carry
// only a subset of rows — and segments that lack a column entirely.
TEST_F(EngineFixture, DifferentialSparseAttributes) {
  const auto records = testkit::make_records(31, 300);
  crypto::ChaCha20Rng rng(77);
  MemoryEngine memory;
  SegmentEngine segment(dir.string(), tiny_options());
  for (const auto& rec : records) {
    Fragment f{rec.glsn, {}};
    for (const auto& [name, value] : rec.attrs) {
      if (rng.next_u64() % 6 != 0) f.attrs.emplace(name, value);
    }
    memory.put(f);
    segment.put(std::move(f));
  }
  expect_query_equivalence(memory, segment, "sparse");
}

// Zone maps must prune segments whose value ranges cannot match — observable
// through the storage counters — without changing results.
TEST_F(EngineFixture, ZoneMapsPruneDisjointSegments) {
  SegmentEngine::Options opts;
  opts.memtable_max_records = 0;
  opts.auto_compact = false;
  SegmentEngine eng(dir.string(), opts);
  MemoryEngine memory;
  // Three segments with disjoint C1 bands.
  for (int band = 0; band < 3; ++band) {
    for (Glsn g = 1; g <= 20; ++g) {
      Fragment f;
      f.glsn = static_cast<Glsn>(band) * 100 + g;
      f.attrs = {{"C1", Value(static_cast<std::int64_t>(band * 1000 +
                                                        static_cast<int>(g)))},
                 {"id", Value("U1")}};
      memory.put(f);
      eng.put(std::move(f));
    }
    eng.seal();
  }
  ASSERT_EQ(eng.segments().size(), 3u);

  reset_storage_stats();
  const audit::Expr expr =
      audit::parse("C1 >= 2000 AND C1 <= 2005", logm::paper_schema());
  const auto got = audit::eval_engine_indexed(expr, eng);
  EXPECT_EQ(got, audit::eval_engine_scan(expr, memory));
  EXPECT_EQ(got.size(), 5u);  // band 2 carries 2001..2020
  // Two of three segments lie wholly outside [2000, 2005].
  EXPECT_GE(storage_stats().zone_map_skips, 2u);
  EXPECT_GE(storage_stats().segment_probe_hits, 1u);
}

}  // namespace
}  // namespace dla::logm
