#include "logm/storage_engine.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>

#include "logm/wal.hpp"

namespace dla::logm {

namespace fs = std::filesystem;

// ---- stats -----------------------------------------------------------------

namespace {
StorageStats g_storage_stats;
}  // namespace

StorageStats& storage_stats_mut() { return g_storage_stats; }
const StorageStats& storage_stats() { return g_storage_stats; }
void reset_storage_stats() { g_storage_stats = StorageStats{}; }

// ---- MemoryEngine ----------------------------------------------------------

namespace {
std::optional<Value> value_of(const Fragment& frag, const std::string& attr) {
  const auto it = frag.attrs.find(attr);
  if (it == frag.attrs.end()) return std::nullopt;
  return it->second;
}
}  // namespace

std::optional<Value> MemoryEngine::fetch_value(Glsn glsn,
                                               const std::string& attr) const {
  const Fragment* frag = store_.get(glsn);
  if (frag == nullptr) return std::nullopt;
  return value_of(*frag, attr);
}

// ---- ReadTxnTracker --------------------------------------------------------

std::uint64_t ReadTxnTracker::open_txn(std::uint64_t now_us) {
  const std::uint64_t serial = next_serial_++;
  open_.emplace(serial, now_us);
  return serial;
}

void ReadTxnTracker::close_txn(std::uint64_t serial) { open_.erase(serial); }

std::vector<ReadTxnTracker::StalledTxn> ReadTxnTracker::stalled(
    std::uint64_t now_us, std::uint64_t min_age_us) const {
  std::vector<StalledTxn> out;
  for (const auto& [serial, opened_at] : open_) {
    const std::uint64_t age = now_us > opened_at ? now_us - opened_at : 0;
    if (age >= min_age_us) out.push_back(StalledTxn{serial, age});
  }
  return out;
}

// ---- SegmentEngine: paths and construction ---------------------------------

std::string SegmentEngine::segment_path(std::uint64_t seq) const {
  return dir_ + "/seg-" + std::to_string(seq) + ".dseg";
}

std::string SegmentEngine::manifest_path() const { return dir_ + "/MANIFEST"; }

std::string SegmentEngine::wal_path() const { return dir_ + "/wal.log"; }

SegmentEngine::SegmentEngine(std::string dir)
    : SegmentEngine(std::move(dir), Options{}) {}

SegmentEngine::SegmentEngine(std::string dir, Options options)
    : dir_(std::move(dir)), options_(options) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) throw SegmentError("SegmentEngine: cannot create dir " + dir_);
  load_manifest();
  sweep_orphans();
  replay_wal();
  // Opened only once replay has cut any torn tail, so that new frames land
  // right behind the intact prefix.
  wal_.open(wal_path(), std::ios::binary | std::ios::app);
  if (!wal_) throw SegmentError("SegmentEngine: cannot open WAL in " + dir_);
  visible_count_ = recompute_visible();
}

void SegmentEngine::load_manifest() {
  std::ifstream in(manifest_path());
  if (!in) return;  // fresh engine
  std::string line;
  if (!std::getline(in, line) || line != "DLAMANIFEST 1") {
    throw SegmentError("SegmentEngine: bad manifest header in " + dir_);
  }
  auto list = std::make_shared<SegmentList>();
  std::uint64_t max_seq = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "next_seq") {
      if (!(fields >> next_seq_) || next_seq_ == 0) {
        throw SegmentError("SegmentEngine: bad next_seq in " + dir_);
      }
    } else if (tag == "segment") {
      std::string fname;
      std::uint64_t seq = 0;
      if (!(fields >> fname >> seq) || fname.find('/') != std::string::npos) {
        throw SegmentError("SegmentEngine: bad segment entry in " + dir_);
      }
      std::shared_ptr<Segment> seg = Segment::open(dir_ + "/" + fname);
      if (seg->seq() != seq) {
        throw SegmentError("SegmentEngine: manifest/segment seq mismatch: " +
                           fname);
      }
      max_seq = std::max(max_seq, seq);
      list->push_back(std::move(seg));
    } else {
      throw SegmentError("SegmentEngine: unknown manifest line in " + dir_);
    }
  }
  if (next_seq_ <= max_seq) next_seq_ = max_seq + 1;
  segments_ = std::move(list);
}

void SegmentEngine::sweep_orphans() {
  // Any seg-*.dseg not named by the manifest is leftover from a crash
  // between segment write and manifest commit — never acknowledged, safe to
  // remove. Ditto a stranded manifest tmp.
  std::set<std::string> live;
  for (const auto& seg : *segments_) {
    live.insert(fs::path(seg->path()).filename().string());
  }
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 5 && name.rfind("seg-", 0) == 0 &&
        name.find(".dseg") != std::string::npos && live.count(name) == 0) {
      fs::remove(entry.path(), ec);
      ++storage_stats_mut().orphan_segments_removed;
    }
  }
  fs::remove(manifest_path() + ".tmp", ec);
}

void SegmentEngine::replay_wal() {
  walio::ReplayStats stats = walio::replay_frames(
      wal_path(), [&](std::uint8_t op, net::Reader& r) {
        if (op == walio::kOpPut) {
          Fragment frag = Fragment::decode(r);
          const Glsn g = frag.glsn;
          auto it = std::lower_bound(tombstones_.begin(), tombstones_.end(), g);
          if (it != tombstones_.end() && *it == g) tombstones_.erase(it);
          memtable_.put(std::move(frag));
        } else if (op == walio::kOpErase) {
          const Glsn g = r.u64();
          memtable_.erase(g);
          for (const auto& seg : *segments_) {
            if (seg->row_of(g)) {
              auto it =
                  std::lower_bound(tombstones_.begin(), tombstones_.end(), g);
              if (it == tombstones_.end() || *it != g) {
                tombstones_.insert(it, g);
              }
              break;
            }
          }
        } else {
          throw net::CodecError("SegmentEngine: unknown WAL op");
        }
      });
  storage_stats_mut().wal_frames_replayed += stats.replayed;
  if (stats.corrupt_skipped > 0) {
    // Cut the torn/corrupt tail off before anything is appended behind it;
    // otherwise the next replay stops at the same frame and silently drops
    // every acknowledged frame written after this recovery.
    std::error_code ec;
    fs::resize_file(wal_path(), stats.intact_bytes, ec);
    if (ec) throw SegmentError("SegmentEngine: cannot truncate WAL in " + dir_);
    if (walio::sync_file(wal_path())) ++file_sync_calls_;
  }
}

// ---- WAL -------------------------------------------------------------------

void SegmentEngine::wal_append(std::uint8_t op, const net::Bytes& payload) {
  if (ephemeral_) return;  // clones are in-memory only
  walio::append_frame(wal_, op, payload);
  if (options_.sync_mode == SyncMode::EveryFrame) {
    if (walio::sync_file(wal_path())) ++file_sync_calls_;
  }
}

void SegmentEngine::reset_wal() {
  if (ephemeral_) return;
  wal_.close();
  wal_.open(wal_path(), std::ios::binary | std::ios::trunc);
  if (!wal_) throw SegmentError("SegmentEngine: cannot reset WAL in " + dir_);
  if (walio::sync_file(wal_path())) ++file_sync_calls_;
}

// ---- mutation path ---------------------------------------------------------

bool SegmentEngine::tombstone_pending(Glsn glsn) const {
  return std::binary_search(tombstones_.begin(), tombstones_.end(), glsn);
}

void SegmentEngine::put(Fragment fragment) {
  const Glsn g = fragment.glsn;
  const bool was_visible = contains(g);
  net::Writer w;
  fragment.encode(w);
  wal_append(walio::kOpPut, w.bytes());
  auto it = std::lower_bound(tombstones_.begin(), tombstones_.end(), g);
  if (it != tombstones_.end() && *it == g) tombstones_.erase(it);
  memtable_.put(std::move(fragment));
  if (!was_visible) ++visible_count_;
  maybe_seal();
}

bool SegmentEngine::erase(Glsn glsn) {
  if (!contains(glsn)) return false;
  net::Writer w;
  w.u64(glsn);
  wal_append(walio::kOpErase, w.bytes());
  memtable_.erase(glsn);
  // A tombstone is needed whenever any sealed segment still carries the
  // glsn — without it the sealed version would resurface.
  for (const auto& seg : *segments_) {
    if (seg->row_of(glsn)) {
      auto it = std::lower_bound(tombstones_.begin(), tombstones_.end(), glsn);
      if (it == tombstones_.end() || *it != glsn) tombstones_.insert(it, glsn);
      break;
    }
  }
  --visible_count_;
  maybe_seal();
  return true;
}

// ---- read path -------------------------------------------------------------

SegmentEngine::Located SegmentEngine::locate(Glsn glsn) const {
  if (const Fragment* frag = memtable_.get(glsn)) return {frag};
  if (tombstone_pending(glsn)) return {};
  const SegmentList& segs = *segments_;
  for (std::size_t i = segs.size(); i-- > 0;) {
    if (std::optional<std::size_t> row = segs[i]->row_of(glsn)) {
      return {nullptr, segs[i].get(), *row};
    }
    if (segs[i]->has_tombstone(glsn)) return {};
  }
  return {};
}

bool SegmentEngine::contains(Glsn glsn) const {
  const Located at = locate(glsn);
  return at.fragment != nullptr || at.segment != nullptr;
}

std::optional<Fragment> SegmentEngine::fetch(Glsn glsn) const {
  const Located at = locate(glsn);
  if (at.fragment != nullptr) return *at.fragment;
  if (at.segment != nullptr) return at.segment->fragment_at(at.row);
  return std::nullopt;
}

std::optional<Value> SegmentEngine::fetch_value(Glsn glsn,
                                                const std::string& attr) const {
  const Located at = locate(glsn);
  if (at.fragment != nullptr) return value_of(*at.fragment, attr);
  if (at.segment == nullptr) return std::nullopt;
  const Segment::AttrView* col = at.segment->attr(attr);
  if (col == nullptr) return std::nullopt;
  const std::optional<std::uint32_t> j =
      at.segment->present_pos(*col, static_cast<std::uint32_t>(at.row));
  if (!j) return std::nullopt;
  return at.segment->cell_value(*col, *j);
}

void SegmentEngine::scan_visible(
    const std::function<void(Glsn, const Segment*, std::size_t)>& cb) const {
  const SegmentList& segs = *segments_;
  const std::vector<Glsn> mem = memtable_.glsns();
  std::size_t mem_pos = 0, pend_pos = 0;
  std::vector<std::size_t> row_pos(segs.size(), 0);
  std::vector<std::size_t> tomb_pos(segs.size(), 0);
  constexpr Glsn kNone = std::numeric_limits<Glsn>::max();
  for (;;) {
    Glsn g = kNone;
    bool any = false;
    auto consider = [&](bool has, Glsn cand) {
      if (!has) return;
      if (!any || cand < g) g = cand;
      any = true;
    };
    consider(mem_pos < mem.size(), mem_pos < mem.size() ? mem[mem_pos] : 0);
    consider(pend_pos < tombstones_.size(),
             pend_pos < tombstones_.size() ? tombstones_[pend_pos] : 0);
    for (std::size_t i = 0; i < segs.size(); ++i) {
      consider(row_pos[i] < segs[i]->rows(),
               row_pos[i] < segs[i]->rows() ? segs[i]->glsn_at(row_pos[i]) : 0);
      consider(tomb_pos[i] < segs[i]->tombstone_count(),
               tomb_pos[i] < segs[i]->tombstone_count()
                   ? segs[i]->tombstone_at(tomb_pos[i])
                   : 0);
    }
    if (!any) break;

    // Resolve newest-wins: memtable row > pending tombstone > segments
    // newest -> oldest (row or tombstone, whichever that segment carries).
    bool visible = false;
    const Segment* src = nullptr;
    std::size_t src_row = 0;
    if (mem_pos < mem.size() && mem[mem_pos] == g) {
      visible = true;
    } else if (pend_pos < tombstones_.size() && tombstones_[pend_pos] == g) {
      visible = false;
    } else {
      for (std::size_t i = segs.size(); i-- > 0;) {
        if (row_pos[i] < segs[i]->rows() &&
            segs[i]->glsn_at(row_pos[i]) == g) {
          visible = true;
          src = segs[i].get();
          src_row = row_pos[i];
          break;
        }
        if (tomb_pos[i] < segs[i]->tombstone_count() &&
            segs[i]->tombstone_at(tomb_pos[i]) == g) {
          break;  // tombstoned as of segment i
        }
      }
    }
    if (visible) cb(g, src, src_row);

    if (mem_pos < mem.size() && mem[mem_pos] == g) ++mem_pos;
    if (pend_pos < tombstones_.size() && tombstones_[pend_pos] == g) {
      ++pend_pos;
    }
    for (std::size_t i = 0; i < segs.size(); ++i) {
      if (row_pos[i] < segs[i]->rows() && segs[i]->glsn_at(row_pos[i]) == g) {
        ++row_pos[i];
      }
      if (tomb_pos[i] < segs[i]->tombstone_count() &&
          segs[i]->tombstone_at(tomb_pos[i]) == g) {
        ++tomb_pos[i];
      }
    }
  }
}

std::size_t SegmentEngine::recompute_visible() const {
  std::size_t count = 0;
  scan_visible([&](Glsn, const Segment*, std::size_t) { ++count; });
  return count;
}

std::vector<Glsn> SegmentEngine::glsns() const {
  std::vector<Glsn> out;
  out.reserve(visible_count_);
  scan_visible([&](Glsn g, const Segment*, std::size_t) { out.push_back(g); });
  return out;
}

void SegmentEngine::for_each(
    const std::function<void(const Fragment&)>& visit) const {
  scan_visible([&](Glsn g, const Segment* seg, std::size_t row) {
    if (seg == nullptr) {
      visit(*memtable_.get(g));
    } else {
      visit(seg->fragment_at(row));
    }
  });
}

// ---- seal / manifest / compaction ------------------------------------------

void SegmentEngine::hit_crash_hook(CrashPoint point) {
  auto it = crash_hooks_.find(point);
  if (it != crash_hooks_.end() && it->second) it->second();
}

void SegmentEngine::set_crash_hook(CrashPoint point,
                                   std::function<void()> hook) {
  crash_hooks_[point] = std::move(hook);
}

void SegmentEngine::publish(std::shared_ptr<const SegmentList> next) {
  segments_ = std::move(next);
}

void SegmentEngine::write_manifest(const SegmentList& list) {
  const std::string tmp = manifest_path() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) throw SegmentError("SegmentEngine: cannot write manifest tmp");
    out << "DLAMANIFEST 1\n";
    out << "next_seq " << next_seq_ << "\n";
    for (const auto& seg : list) {
      out << "segment " << fs::path(seg->path()).filename().string() << " "
          << seg->seq() << "\n";
    }
    out.flush();
    if (!out) throw SegmentError("SegmentEngine: manifest tmp write failed");
  }
  if (walio::sync_file(tmp)) ++file_sync_calls_;
  hit_crash_hook(CrashPoint::BeforeManifestRename);
  std::error_code ec;
  fs::rename(tmp, manifest_path(), ec);
  if (ec) throw SegmentError("SegmentEngine: manifest rename failed");
  if (walio::sync_parent_dir(manifest_path())) ++dir_sync_calls_;
  hit_crash_hook(CrashPoint::AfterManifestRename);
}

void SegmentEngine::maybe_seal() {
  if (ephemeral_ || options_.memtable_max_records == 0) return;
  if (memtable_.size() + tombstones_.size() >= options_.memtable_max_records) {
    seal();
  }
}

std::size_t SegmentEngine::seal() {
  if (ephemeral_) {
    throw std::logic_error("SegmentEngine: cannot seal an ephemeral clone");
  }
  if (memtable_.size() == 0 && tombstones_.empty()) return 0;
  const std::uint64_t seq = next_seq_++;
  const std::string path = segment_path(seq);
  std::vector<const Fragment*> frags;
  frags.reserve(memtable_.size());
  memtable_.for_each([&](const Fragment& frag) { frags.push_back(&frag); });
  const std::size_t sealed = frags.size();
  write_segment_file(path, seq, frags, tombstones_);
  if (walio::sync_file(path)) ++file_sync_calls_;
  hit_crash_hook(CrashPoint::AfterSegmentSync);
  std::shared_ptr<Segment> seg = Segment::open(path);
  auto next = std::make_shared<SegmentList>(*segments_);
  next->push_back(std::move(seg));
  write_manifest(*next);
  publish(std::move(next));
  // The manifest commit made the sealed rows durable in segment form; the
  // WAL tail is now redundant. A crash before this reset just replays put
  // frames whose content is identical to the sealed rows — idempotent.
  reset_wal();
  const bool indexing = memtable_.indexing();
  memtable_ = FragmentStore();
  memtable_.set_indexing(indexing);
  tombstones_.clear();
  ++storage_stats_mut().segments_sealed;
  if (options_.auto_compact) maybe_compact();
  return sealed;
}

std::size_t SegmentEngine::compact() {
  if (ephemeral_) {
    throw std::logic_error("SegmentEngine: cannot compact an ephemeral clone");
  }
  return maybe_compact();
}

std::size_t SegmentEngine::maybe_compact() {
  std::size_t merges = 0;
  const std::size_t fanout = std::max<std::size_t>(2, options_.compaction_fanout);
  const std::size_t base = std::max<std::size_t>(1, options_.memtable_max_records);
  auto tier_of = [&](const std::shared_ptr<Segment>& seg) {
    std::size_t tier = 0;
    std::size_t cap = base;
    const std::size_t rows = std::max<std::size_t>(1, seg->rows());
    while (rows > cap) {
      cap *= fanout;
      ++tier;
    }
    return tier;
  };
  for (;;) {
    const SegmentList& list = *segments_;
    bool merged = false;
    for (std::size_t i = 0; i + fanout <= list.size(); ++i) {
      const std::size_t tier = tier_of(list[i]);
      std::size_t rows = 0;
      bool same_tier = true;
      for (std::size_t k = 0; k < fanout; ++k) {
        if (tier_of(list[i + k]) != tier) {
          same_tier = false;
          break;
        }
        rows += list[i + k]->rows();
      }
      if (same_tier && rows <= options_.max_compaction_rows) {
        compact_run(i, fanout);
        ++merges;
        merged = true;
        break;  // list changed; restart the scan
      }
    }
    if (!merged) break;
  }
  return merges;
}

void SegmentEngine::compact_run(std::size_t begin, std::size_t count) {
  const SegmentList& list = *segments_;
  // Newest-wins decision per glsn across the run: later list positions
  // overwrite earlier ones.
  struct Win {
    std::size_t seg = 0;
    std::size_t row = 0;
    bool tomb = false;
  };
  std::map<Glsn, Win> wins;
  for (std::size_t s = 0; s < count; ++s) {
    const Segment& seg = *list[begin + s];
    for (std::size_t r = 0; r < seg.rows(); ++r) {
      wins[seg.glsn_at(r)] = Win{begin + s, r, false};
    }
    for (std::size_t t = 0; t < seg.tombstone_count(); ++t) {
      wins[seg.tombstone_at(t)] = Win{0, 0, true};
    }
  }
  // Tombstones still shadow segments OLDER than the run; they drop only
  // when the run starts at the head of the list (nothing older exists).
  const bool at_head = begin == 0;
  std::vector<Fragment> owned;
  std::vector<Glsn> tombs;
  owned.reserve(wins.size());
  for (const auto& [glsn, win] : wins) {
    if (win.tomb) {
      if (!at_head) tombs.push_back(glsn);
    } else {
      owned.push_back(list[win.seg]->fragment_at(win.row));
    }
  }
  std::vector<const Fragment*> frags;
  frags.reserve(owned.size());
  for (const Fragment& frag : owned) frags.push_back(&frag);

  const std::uint64_t seq = next_seq_++;
  const std::string path = segment_path(seq);
  write_segment_file(path, seq, frags, tombs);
  if (walio::sync_file(path)) ++file_sync_calls_;
  hit_crash_hook(CrashPoint::AfterSegmentSync);
  std::shared_ptr<Segment> merged = Segment::open(path);

  auto next = std::make_shared<SegmentList>();
  next->reserve(list.size() - count + 1);
  next->insert(next->end(), list.begin(), list.begin() + begin);
  next->push_back(std::move(merged));
  next->insert(next->end(), list.begin() + begin + count, list.end());
  write_manifest(*next);

  // Keep a handle on the inputs so they can be marked for reclaim after
  // the swap; open read transactions pinning the old list keep the files
  // alive until they release.
  SegmentList inputs(list.begin() + begin, list.begin() + begin + count);
  publish(std::move(next));
  hit_crash_hook(CrashPoint::BeforeInputUnlink);
  for (const auto& seg : inputs) seg->set_unlink_on_close(true);
  ++storage_stats_mut().segment_compactions;
}

// ---- read transactions -----------------------------------------------------

SegmentEngine::ReadTxn::ReadTxn(ReadTxn&& other) noexcept
    : tracker_(std::move(other.tracker_)),
      snapshot_(std::move(other.snapshot_)),
      serial_(other.serial_) {}

SegmentEngine::ReadTxn::~ReadTxn() {
  if (tracker_ == nullptr) return;
  tracker_->close_txn(serial_);
  storage_stats_mut().pinned_readers = tracker_->open_count();
}

SegmentEngine::ReadTxn SegmentEngine::begin_read(std::uint64_t now_us) const {
  const std::uint64_t serial = tracker_->open_txn(now_us);
  storage_stats_mut().pinned_readers = tracker_->open_count();
  return ReadTxn(tracker_, segments_, serial);
}

std::vector<ReadTxnTracker::StalledTxn> SegmentEngine::report_stalled_readers(
    std::uint64_t now_us, std::uint64_t min_age_us) const {
  std::vector<ReadTxnTracker::StalledTxn> out =
      tracker_->stalled(now_us, min_age_us);
  storage_stats_mut().stalled_readers += out.size();
  return out;
}

// ---- clone -----------------------------------------------------------------

std::unique_ptr<SegmentEngine> SegmentEngine::clone_shared() const {
  auto clone = std::unique_ptr<SegmentEngine>(new SegmentEngine());
  clone->dir_ = dir_;
  clone->options_ = options_;
  clone->ephemeral_ = true;
  clone->segments_ = segments_;  // shared immutable state: no re-scan
  clone->next_seq_ = next_seq_;
  clone->memtable_ = memtable_;  // rebuilds only the memtable mirror
  clone->tombstones_ = tombstones_;
  clone->visible_count_ = visible_count_;
  StorageStats& stats = storage_stats_mut();
  stats.clone_shared_segments += segments_->size();
  stats.clone_memtable_rows += memtable_.size();
  return clone;
}

}  // namespace dla::logm
