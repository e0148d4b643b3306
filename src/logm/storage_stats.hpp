// Process-wide storage-engine counters.
//
// Written by the logm storage layer (seal/compaction/recovery/clone paths)
// and by the audit-side segment query planner; re-exported to drivers as
// audit::storage_counters(). Every field is documented in docs/STORAGE.md.
// Split from storage_engine.hpp so FragmentStore itself can count mirror
// rebuilds without a circular include.
#pragma once

#include <cstdint>

namespace dla::logm {

struct StorageStats {
  std::uint64_t segments_sealed = 0;      // memtable -> segment seals
  std::uint64_t segment_compactions = 0;  // tiered merge operations
  std::uint64_t segment_probe_hits = 0;   // access paths run on segments
  std::uint64_t zone_map_skips = 0;       // segments pruned before a probe
  std::uint64_t segment_rows_decoded = 0;  // rows evaluated lazily from mmap
  std::uint64_t pinned_readers = 0;        // gauge: open read transactions
  std::uint64_t stalled_readers = 0;       // readers reported past deadline
  std::uint64_t clone_shared_segments = 0;  // segments shared on clone
  std::uint64_t clone_memtable_rows = 0;    // rows re-mirrored on clone
  std::uint64_t mirror_rebuild_rows = 0;  // FragmentStore full mirror rebuilds
  std::uint64_t wal_frames_replayed = 0;  // engine WAL frames on recovery
  std::uint64_t orphan_segments_removed = 0;  // crash leftovers swept at open
};

StorageStats& storage_stats_mut();
const StorageStats& storage_stats();
void reset_storage_stats();

}  // namespace dla::logm
