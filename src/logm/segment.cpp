#include "logm/segment.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>

#include "logm/store.hpp"  // ValueLess
#include "logm/wal.hpp"    // crc32

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace dla::logm {

namespace {

constexpr char kMagic[8] = {'D', 'L', 'A', 'S', 'E', 'G', '1', '\0'};
constexpr char kEndMagic[8] = {'D', 'L', 'A', 'E', 'N', 'D', '1', '\0'};
constexpr std::size_t kHeaderBytes = 48;
constexpr std::size_t kTrailerBytes = 12;  // crc32 + end magic
constexpr std::size_t kMaxAttrName = 4096;

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void patch_u64(std::vector<std::uint8_t>& out, std::size_t off,
               std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

}  // namespace

// ---- writer ----------------------------------------------------------------

std::uint64_t write_segment_file(const std::string& path, std::uint64_t seq,
                                 const std::vector<const Fragment*>& fragments,
                                 const std::vector<Glsn>& tombstones) {
  // Column transposition: attr name -> (present row, cell value) pairs, in
  // row order. std::map gives a deterministic attribute directory.
  std::map<std::string, std::vector<std::pair<std::uint32_t, const Value*>>>
      columns;
  for (std::size_t row = 0; row < fragments.size(); ++row) {
    for (const auto& [name, value] : fragments[row]->attrs) {
      columns[name].emplace_back(static_cast<std::uint32_t>(row), &value);
    }
  }

  std::vector<std::uint8_t> body(kMagic, kMagic + 8);
  put_u64(body, seq);
  put_u64(body, fragments.size());
  put_u64(body, tombstones.size());
  put_u64(body, columns.size());
  const std::size_t file_length_off = body.size();
  put_u64(body, 0);  // file_length, patched below

  for (const Fragment* frag : fragments) put_u64(body, frag->glsn);
  for (Glsn g : tombstones) put_u64(body, g);

  // Attribute directory. Cell extents are patched once the blob offsets are
  // known; remember where each extent list starts.
  std::vector<std::size_t> cells_patch_offsets;
  std::vector<const std::vector<std::pair<std::uint32_t, const Value*>>*>
      column_order;
  for (const auto& [name, cells] : columns) {
    put_u32(body, static_cast<std::uint32_t>(name.size()));
    body.insert(body.end(), name.begin(), name.end());
    put_u64(body, cells.size());
    for (const auto& [row, value] : cells) put_u32(body, row);
    // ValueLess order permutation; stable so equal values keep glsn order,
    // matching the sorted runs inside an AttributeIndex posting.
    std::vector<std::uint32_t> order(cells.size());
    for (std::uint32_t j = 0; j < order.size(); ++j) order[j] = j;
    const ValueLess less;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return less(*cells[a].second, *cells[b].second);
                     });
    for (std::uint32_t j : order) put_u32(body, j);
    cells_patch_offsets.push_back(body.size());
    for (std::size_t j = 0; j < cells.size(); ++j) {
      put_u64(body, 0);  // offset, patched
      put_u32(body, 0);  // length, patched
    }
    column_order.push_back(&cells);
  }

  // Blob area: encode every cell, patching its extent into the directory.
  for (std::size_t c = 0; c < column_order.size(); ++c) {
    std::size_t patch = cells_patch_offsets[c];
    for (const auto& [row, value] : *column_order[c]) {
      net::Writer w;
      value->encode(w);
      const net::Bytes& bytes = w.bytes();
      patch_u64(body, patch, body.size());
      for (int i = 0; i < 4; ++i) {
        body[patch + 8 + i] =
            static_cast<std::uint8_t>(bytes.size() >> (8 * i));
      }
      patch += 12;
      body.insert(body.end(), bytes.begin(), bytes.end());
    }
  }

  patch_u64(body, file_length_off, body.size() + kTrailerBytes);
  const std::uint32_t crc = crc32(body.data(), body.size());
  put_u32(body, crc);
  body.insert(body.end(), kEndMagic, kEndMagic + 8);

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw SegmentError("segment: cannot open for write: " + path);
  out.write(reinterpret_cast<const char*>(body.data()),
            static_cast<std::streamsize>(body.size()));
  out.flush();
  if (!out) throw SegmentError("segment: write failed: " + path);
  return body.size();
}

// ---- reader ----------------------------------------------------------------

std::uint32_t Segment::u32_at(std::size_t off) const {
  std::uint32_t v = 0;
  std::memcpy(&v, mapped_base_ + off, 4);  // file is little-endian; so are we
  return v;
}

std::uint64_t Segment::u64_at(std::size_t off) const {
  std::uint64_t v = 0;
  std::memcpy(&v, mapped_base_ + off, 8);
  return v;
}

std::shared_ptr<Segment> Segment::open(std::string path) {
  auto seg = std::shared_ptr<Segment>(new Segment());
  seg->path_ = std::move(path);
#if defined(__unix__) || defined(__APPLE__)
  int fd = ::open(seg->path_.c_str(), O_RDONLY);
  if (fd < 0) throw SegmentError("segment: cannot open " + seg->path_);
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    ::close(fd);
    throw SegmentError("segment: cannot stat / empty file " + seg->path_);
  }
  void* map = ::mmap(nullptr, static_cast<std::size_t>(st.st_size), PROT_READ,
                     MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    throw SegmentError("segment: mmap failed on " + seg->path_);
  }
  seg->mapped_base_ = static_cast<const std::uint8_t*>(map);
  seg->mapped_size_ = static_cast<std::size_t>(st.st_size);
  seg->mmapped_ = true;
#else
  std::ifstream in(seg->path_, std::ios::binary | std::ios::ate);
  if (!in) throw SegmentError("segment: cannot open " + seg->path_);
  const std::streamsize size = in.tellg();
  if (size <= 0) throw SegmentError("segment: empty file " + seg->path_);
  seg->heap_copy_.resize(static_cast<std::size_t>(size));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(seg->heap_copy_.data()), size);
  if (!in) throw SegmentError("segment: short read on " + seg->path_);
  seg->mapped_base_ = seg->heap_copy_.data();
  seg->mapped_size_ = seg->heap_copy_.size();
#endif
  seg->validate();
  return seg;
}

Segment::~Segment() {
#if defined(__unix__) || defined(__APPLE__)
  if (mmapped_ && mapped_base_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(mapped_base_), mapped_size_);
  }
#endif
  if (unlink_on_close_) std::remove(path_.c_str());
}

void Segment::validate() {
  if (mapped_size_ < kHeaderBytes + kTrailerBytes) {
    throw SegmentError("segment: file too short: " + path_);
  }
  if (std::memcmp(mapped_base_, kMagic, 8) != 0) {
    throw SegmentError("segment: bad magic: " + path_);
  }
  if (std::memcmp(mapped_base_ + mapped_size_ - 8, kEndMagic, 8) != 0) {
    throw SegmentError("segment: bad end magic (torn footer): " + path_);
  }
  const std::size_t body_len = mapped_size_ - kTrailerBytes;
  const std::uint32_t want_crc = u32_at(body_len);
  if (crc32(mapped_base_, body_len) != want_crc) {
    throw SegmentError("segment: CRC mismatch: " + path_);
  }
  seq_ = u64_at(8);
  const std::uint64_t record_count = u64_at(16);
  const std::uint64_t tombstone_count = u64_at(24);
  const std::uint64_t attr_count = u64_at(32);
  const std::uint64_t file_length = u64_at(40);
  if (file_length != mapped_size_) {
    throw SegmentError("segment: length field mismatch (truncated?): " + path_);
  }

  // Bounds-checked cursor over the body. need_items guards count * size
  // against overflow BEFORE any allocation or pointer arithmetic.
  std::size_t cur = kHeaderBytes;
  auto need = [&](std::uint64_t n) {
    if (n > body_len - cur) {
      throw SegmentError("segment: structure exceeds file: " + path_);
    }
  };
  auto need_items = [&](std::uint64_t count, std::size_t item_bytes) {
    if (count > (body_len - cur) / item_bytes) {
      throw SegmentError("segment: array exceeds file: " + path_);
    }
  };

  need_items(record_count, 8);
  row_count_ = static_cast<std::size_t>(record_count);
  glsns_off_ = cur;
  cur += row_count_ * 8;
  for (std::size_t i = 1; i < row_count_; ++i) {
    if (u64_at(glsns_off_ + (i - 1) * 8) >= u64_at(glsns_off_ + i * 8)) {
      throw SegmentError("segment: glsns not strictly ascending: " + path_);
    }
  }

  need_items(tombstone_count, 8);
  tombstone_count_ = static_cast<std::size_t>(tombstone_count);
  tombstones_off_ = cur;
  cur += tombstone_count_ * 8;
  for (std::size_t i = 1; i < tombstone_count_; ++i) {
    if (u64_at(tombstones_off_ + (i - 1) * 8) >=
        u64_at(tombstones_off_ + i * 8)) {
      throw SegmentError("segment: tombstones not ascending: " + path_);
    }
  }

  if (attr_count > (body_len - cur) / 13) {
    // Minimum bytes per attr entry: name_len u32 + 1 name byte + present u64.
    throw SegmentError("segment: attr count exceeds file: " + path_);
  }
  attrs_.reserve(static_cast<std::size_t>(attr_count));
  for (std::uint64_t a = 0; a < attr_count; ++a) {
    AttrView view;
    need(4);
    const std::uint32_t name_len = u32_at(cur);
    cur += 4;
    if (name_len == 0 || name_len > kMaxAttrName) {
      throw SegmentError("segment: implausible attr name length: " + path_);
    }
    need(name_len);
    view.name.assign(reinterpret_cast<const char*>(mapped_base_ + cur),
                     name_len);
    cur += name_len;
    need(8);
    const std::uint64_t present = u64_at(cur);
    cur += 8;
    if (present == 0 || present > record_count) {
      throw SegmentError("segment: attr present count out of range: " + path_);
    }
    view.present = static_cast<std::uint32_t>(present);
    need_items(present, 4);
    view.rows_off = cur;
    cur += present * 4;
    for (std::uint32_t j = 0; j < view.present; ++j) {
      const std::uint32_t row = u32_at(view.rows_off + j * 4);
      if (row >= record_count ||
          (j > 0 && u32_at(view.rows_off + (j - 1) * 4) >= row)) {
        throw SegmentError("segment: attr rows corrupt: " + path_);
      }
    }
    need_items(present, 4);
    view.order_off = cur;
    cur += present * 4;
    std::vector<bool> seen(view.present, false);
    for (std::uint32_t j = 0; j < view.present; ++j) {
      const std::uint32_t k = u32_at(view.order_off + j * 4);
      if (k >= view.present || seen[k]) {
        throw SegmentError("segment: attr order not a permutation: " + path_);
      }
      seen[k] = true;
    }
    need_items(present, 12);
    view.cells_off = cur;
    cur += present * 12;
    attrs_.push_back(std::move(view));
  }

  blob_off_ = cur;
  blob_end_ = body_len;
  for (const AttrView& view : attrs_) {
    for (std::uint32_t j = 0; j < view.present; ++j) {
      const std::uint64_t off = u64_at(view.cells_off + j * 12);
      const std::uint32_t len = u32_at(view.cells_off + j * 12 + 8);
      if (off < blob_off_ || off > blob_end_ || len > blob_end_ - off) {
        throw SegmentError("segment: cell extent out of bounds: " + path_);
      }
    }
  }

  // Zone maps: decode the ValueLess-smallest and -largest cell per attr.
  // Also proves those two cells decode, catching crafted blobs early.
  for (AttrView& view : attrs_) {
    view.min = cell_value(view, order_at(view, 0));
    view.max = cell_value(view, order_at(view, view.present - 1));
  }
}

Glsn Segment::glsn_at(std::size_t row) const {
  return u64_at(glsns_off_ + row * 8);
}

std::optional<std::size_t> Segment::row_of(Glsn glsn) const {
  std::size_t lo = 0, hi = row_count_;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const Glsn g = glsn_at(mid);
    if (g == glsn) return mid;
    if (g < glsn) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return std::nullopt;
}

Glsn Segment::tombstone_at(std::size_t i) const {
  return u64_at(tombstones_off_ + i * 8);
}

bool Segment::has_tombstone(Glsn glsn) const {
  std::size_t lo = 0, hi = tombstone_count_;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const Glsn g = tombstone_at(mid);
    if (g == glsn) return true;
    if (g < glsn) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return false;
}

const Segment::AttrView* Segment::attr(std::string_view name) const {
  // Directory is small (schema-sized) and sorted by construction.
  auto it = std::lower_bound(
      attrs_.begin(), attrs_.end(), name,
      [](const AttrView& a, std::string_view n) { return a.name < n; });
  if (it == attrs_.end() || it->name != name) return nullptr;
  return &*it;
}

std::uint32_t Segment::row_at(const AttrView& a, std::uint32_t j) const {
  return u32_at(a.rows_off + std::size_t{j} * 4);
}

std::optional<std::uint32_t> Segment::present_pos(const AttrView& a,
                                                  std::uint32_t row) const {
  std::uint32_t lo = 0, hi = a.present;
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    const std::uint32_t r = row_at(a, mid);
    if (r == row) return mid;
    if (r < row) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return std::nullopt;
}

std::uint32_t Segment::order_at(const AttrView& a, std::uint32_t j) const {
  return u32_at(a.order_off + std::size_t{j} * 4);
}

Value Segment::cell_value(const AttrView& a, std::uint32_t j) const {
  const std::uint64_t off = u64_at(a.cells_off + std::size_t{j} * 12);
  const std::uint32_t len = u32_at(a.cells_off + std::size_t{j} * 12 + 8);
  // Extents were bounds-checked at open; the Reader re-checks structure so
  // a crafted blob can only throw, never overread.
  net::Bytes bytes(mapped_base_ + off, mapped_base_ + off + len);
  net::Reader r(bytes);
  try {
    Value v = Value::decode(r);
    r.expect_end();
    return v;
  } catch (const net::CodecError& e) {
    throw SegmentError(std::string("segment: cell decode failed: ") +
                       e.what());
  }
}

Fragment Segment::fragment_at(std::size_t row) const {
  Fragment frag;
  frag.glsn = glsn_at(row);
  for (const AttrView& view : attrs_) {
    if (std::optional<std::uint32_t> j =
            present_pos(view, static_cast<std::uint32_t>(row))) {
      frag.attrs.emplace(view.name, cell_value(view, *j));
    }
  }
  return frag;
}

}  // namespace dla::logm
