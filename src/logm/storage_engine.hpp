// Pluggable fragment storage: the in-memory store and the memory-mapped
// columnar segment engine behind one interface.
//
// ROADMAP item 2: the paper's DLA members must retain every fragment ever
// logged, so per-node storage has to scale past RAM. StorageEngine is the
// seam: DlaNode talks to it for every fragment mutation and read, and the
// local query planner (audit::eval_engine_indexed) plans across whatever
// the engine holds.
//
//   MemoryEngine   wraps the existing columnar FragmentStore — everything
//                  in RAM, the fastest backend and the behavioral baseline.
//   SegmentEngine  an LSM-shaped durable backend: mutations land in a
//                  bounded FragmentStore memtable backed by a WAL (the
//                  PR-5 frame format via walio); when the memtable fills it
//                  seals into an immutable, glsn-sorted, mmap'd segment
//                  file (logm/segment.hpp), and size-tiered compaction
//                  merges segment runs — every boundary fsynced and
//                  crash-hook instrumented. Reads run under snapshot read
//                  transactions that pin the segment list against
//                  compaction reclaim, with a tracker reporting stalled
//                  readers (the LMDB txn-tracker idiom).
//
// Durability discipline (extends the PR-5 WAL rules):
//   seal:    write segment -> fsync -> [hook] -> write manifest tmp ->
//            fsync -> [hook] -> rename -> fsync dir -> [hook] -> reset WAL
//   compact: write merged segment -> fsync -> [hook] -> manifest swap as
//            above -> [hook] -> unlink inputs once unpinned
// A crash at any point recovers to the last manifest-committed state plus
// the WAL tail: manifest rename is the single atomic commit point, WAL
// replay is idempotent, and orphan segment files are swept at open.
// See docs/STORAGE.md for the full crash matrix.
//
// Engines are NOT thread-safe: one engine belongs to one node's event loop,
// like the FragmentStore it replaces.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "logm/segment.hpp"
#include "logm/storage_stats.hpp"
#include "logm/store.hpp"

namespace dla::logm {

// ---- engine interface ------------------------------------------------------

class SegmentEngine;

class StorageEngine {
 public:
  virtual ~StorageEngine() = default;

  // Inserts or overwrites the fragment for its glsn.
  virtual void put(Fragment fragment) = 0;
  // Deletes a visible fragment (tombstoning it if it lives in a sealed
  // segment). False when the glsn is not visible.
  virtual bool erase(Glsn glsn) = 0;
  virtual bool contains(Glsn glsn) const = 0;
  // Point read; materializes the fragment (segments decode lazily).
  virtual std::optional<Fragment> fetch(Glsn glsn) const = 0;

  // Visible fragment count / glsns across memtable + segments.
  virtual std::size_t size() const = 0;
  virtual std::vector<Glsn> glsns() const = 0;

  // Visits every visible fragment in ascending glsn order, newest version
  // winning. Segment-resident fragments are decoded per visit.
  virtual void for_each(
      const std::function<void(const Fragment&)>& visit) const = 0;

  // The mutable in-memory tier. For MemoryEngine this is the whole store;
  // for SegmentEngine it is only the unsealed tail.
  virtual FragmentStore& memtable() = 0;
  virtual const FragmentStore& memtable() const = 0;

  // Downcast hook for the query planner; nullptr on pure in-memory engines.
  virtual const SegmentEngine* segment_backend() const { return nullptr; }
};

// ---- in-memory backend -----------------------------------------------------

class MemoryEngine final : public StorageEngine {
 public:
  MemoryEngine() = default;

  void put(Fragment fragment) override { store_.put(std::move(fragment)); }
  bool erase(Glsn glsn) override { return store_.erase(glsn); }
  bool contains(Glsn glsn) const override {
    return store_.get(glsn) != nullptr;
  }
  std::optional<Fragment> fetch(Glsn glsn) const override {
    const Fragment* frag = store_.get(glsn);
    if (frag == nullptr) return std::nullopt;
    return *frag;
  }
  std::size_t size() const override { return store_.size(); }
  std::vector<Glsn> glsns() const override { return store_.glsns(); }
  void for_each(
      const std::function<void(const Fragment&)>& visit) const override {
    store_.for_each(visit);
  }
  FragmentStore& memtable() override { return store_; }
  const FragmentStore& memtable() const override { return store_; }

 private:
  FragmentStore store_;
};

// ---- read-transaction tracking ---------------------------------------------
// Timestamps are caller-fed (microseconds on whatever clock the caller
// uses — the simulator's virtual clock in tests), never sampled here: the
// storage layer stays deterministic under the nondeterminism lint.
class ReadTxnTracker {
 public:
  std::uint64_t open_txn(std::uint64_t now_us);
  void close_txn(std::uint64_t serial);
  std::size_t open_count() const { return open_.size(); }

  struct StalledTxn {
    std::uint64_t serial = 0;
    std::uint64_t age_us = 0;
  };
  // Read transactions open for at least `min_age_us`; each report bumps the
  // stalled_readers counter (the LMDB txn-tracker's "long running
  // transaction" log line, minus the wall clock).
  std::vector<StalledTxn> stalled(std::uint64_t now_us,
                                  std::uint64_t min_age_us) const;

 private:
  std::map<std::uint64_t, std::uint64_t> open_;  // serial -> opened_at_us
  std::uint64_t next_serial_ = 1;
};

// ---- durable segment backend -----------------------------------------------

class SegmentEngine final : public StorageEngine {
 public:
  using SegmentList = std::vector<std::shared_ptr<Segment>>;

  enum class SyncMode : std::uint8_t {
    EveryFrame,  // fsync the WAL per acknowledged mutation (default)
    OnSeal,      // fsync only at seal boundaries — bulk-ingest mode
  };

  struct Options {
    // Seal when memtable rows + pending tombstones reach this; 0 = manual.
    std::size_t memtable_max_records = 4096;
    // Merge a contiguous same-tier run once it reaches this many segments.
    std::size_t compaction_fanout = 4;
    bool auto_compact = true;
    // Skip merges whose combined row count exceeds this: bounds compaction
    // RSS (merged runs are materialized column-wise while writing).
    std::size_t max_compaction_rows = 1u << 19;
    SyncMode sync_mode = SyncMode::EveryFrame;
  };

  // Named crash boundaries; a test hook that throws simulates a crash
  // exactly there. Seal and compaction share the manifest boundaries.
  enum class CrashPoint : std::uint8_t {
    AfterSegmentSync,      // segment file durable, manifest still old
    BeforeManifestRename,  // manifest tmp durable, rename not issued
    AfterManifestRename,   // manifest committed, WAL not yet reset
    BeforeInputUnlink,     // compaction output live, inputs not reclaimed
  };

  // Opens (creating if absent) the engine directory, loads the manifest,
  // validates every live segment, sweeps orphans, and replays the WAL.
  explicit SegmentEngine(std::string dir);
  SegmentEngine(std::string dir, Options options);

  // StorageEngine interface.
  void put(Fragment fragment) override;
  bool erase(Glsn glsn) override;
  bool contains(Glsn glsn) const override;
  std::optional<Fragment> fetch(Glsn glsn) const override;
  std::size_t size() const override { return visible_count_; }
  std::vector<Glsn> glsns() const override;
  void for_each(
      const std::function<void(const Fragment&)>& visit) const override;
  FragmentStore& memtable() override { return memtable_; }
  const FragmentStore& memtable() const override { return memtable_; }
  const SegmentEngine* segment_backend() const override { return this; }

  // Memtable tombstones (deletes of sealed data not yet sealed themselves),
  // sorted ascending. The planner subtracts these from segment hits.
  const std::vector<Glsn>& pending_tombstones() const { return tombstones_; }

  // Seals the memtable (rows + tombstones) into a new segment. Returns the
  // number of rows sealed; no-op returning 0 when there is nothing to seal.
  std::size_t seal();
  // Runs tiered compaction until no run qualifies; returns merges done.
  std::size_t compact();

  void set_crash_hook(CrashPoint point, std::function<void()> hook);

  // ---- snapshot read transactions ----
  class ReadTxn {
   public:
    ReadTxn(ReadTxn&& other) noexcept;
    ReadTxn& operator=(ReadTxn&&) = delete;
    ReadTxn(const ReadTxn&) = delete;
    ~ReadTxn();

    // Segment list snapshot, oldest -> newest. Pinned: compaction will not
    // unlink any file in it while this transaction lives.
    const SegmentList& segments() const { return *snapshot_; }
    std::uint64_t serial() const { return serial_; }

   private:
    friend class SegmentEngine;
    ReadTxn(const SegmentEngine* engine,
            std::shared_ptr<const SegmentList> snapshot, std::uint64_t serial)
        : engine_(engine), snapshot_(std::move(snapshot)), serial_(serial) {}
    const SegmentEngine* engine_;
    std::shared_ptr<const SegmentList> snapshot_;
    std::uint64_t serial_ = 0;
  };

  // now_us is caller-fed (virtual time in tests) — see ReadTxnTracker.
  ReadTxn begin_read(std::uint64_t now_us = 0) const;
  const ReadTxnTracker& txn_tracker() const { return tracker_; }
  // Reports (and counts) read transactions open for >= min_age_us.
  std::vector<ReadTxnTracker::StalledTxn> report_stalled_readers(
      std::uint64_t now_us, std::uint64_t min_age_us) const;

  // Current segment list (oldest -> newest). Prefer begin_read() for
  // anything that outlives one statement.
  const SegmentList& segments() const { return *segments_; }

  // Ephemeral clone for replica bring-up and invariant checks: shares the
  // immutable segment files (no re-scan, no re-mmap) and copies only the
  // memtable — the fix for the O(total-rows) clone cost the all-in-memory
  // store pays. The clone is detached from disk: it opens no WAL and must
  // not be mutated durably.
  std::unique_ptr<SegmentEngine> clone_shared() const;

  const std::string& dir() const { return dir_; }
  // fsyncs issued: files (WAL frames, sealed segments, manifest tmps) and
  // parent-directory syncs (one per manifest rename).
  std::size_t file_sync_calls() const { return file_sync_calls_; }
  std::size_t dir_sync_calls() const { return dir_sync_calls_; }

 private:
  SegmentEngine() = default;  // clone_shared

  void wal_append(std::uint8_t op, const net::Bytes& payload);
  void replay_wal();
  void reset_wal();
  void load_manifest();
  // Atomic manifest commit: tmp write -> fsync -> [hook] -> rename ->
  // dir fsync -> [hook].
  void write_manifest(const SegmentList& list);
  void sweep_orphans();
  void hit_crash_hook(CrashPoint point);
  void publish(std::shared_ptr<const SegmentList> next);
  // Merged visitation of visible glsns in ascending order, newest version
  // winning; segment == nullptr means the row lives in the memtable.
  void scan_visible(const std::function<void(Glsn, const Segment*,
                                             std::size_t row)>& cb) const;
  std::size_t recompute_visible() const;
  void maybe_seal();
  std::size_t maybe_compact();
  // Merges segments [begin, begin+count) of the current list into one.
  void compact_run(std::size_t begin, std::size_t count);
  bool tombstone_pending(Glsn glsn) const;
  std::string segment_path(std::uint64_t seq) const;
  std::string manifest_path() const;
  std::string wal_path() const;

  std::string dir_;
  Options options_;
  bool ephemeral_ = false;  // clone: no WAL, no manifest writes
  std::shared_ptr<const SegmentList> segments_ =
      std::make_shared<SegmentList>();
  std::uint64_t next_seq_ = 1;
  FragmentStore memtable_;
  std::vector<Glsn> tombstones_;  // sorted; deletes of sealed data
  std::size_t visible_count_ = 0;
  std::size_t file_sync_calls_ = 0;
  std::size_t dir_sync_calls_ = 0;
  std::map<CrashPoint, std::function<void()>> crash_hooks_;
  mutable ReadTxnTracker tracker_;
};

}  // namespace dla::logm
