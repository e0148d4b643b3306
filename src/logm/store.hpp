// Per-DLA-node fragment storage with the per-ticket access control table of
// Table 6.
//
// Every DLA node runs one FragmentStore for the fragments routed to it and
// one AccessControlTable mapping ticket ids to the glsn sets that ticket may
// read/write/delete. The paper requires every DLA node to maintain *the
// same* ACL for every glsn; the audit layer cross-checks consistency with
// the secure-set-intersection primitive (Section 4.1, last paragraph).
//
// The store keeps the glsn-ordered fragment map as the source of truth and
// maintains a columnar mirror alongside it (see docs/QUERY_ENGINE.md):
//   - row_glsns(): the sorted glsn vector; row r of every column belongs to
//     row_glsns()[r].
//   - column(attr): a glsn-aligned vector of `const Value*` cells (nullptr
//     where the fragment does not carry the attribute). Cells point into the
//     fragment map's own nodes, which std::map keeps stable.
//   - attr_index(attr): sorted value -> glsn-postings index with column
//     stats (row/distinct counts, min/max) for the local query planner.
// Maintenance is incremental on put/erase: appends (the common case — glsns
// are assigned monotonically) are O(#attrs * log distinct); mid-sequence
// inserts pay an O(rows) column shift. `set_indexing(false)` turns the store
// into the pure naive-scan baseline used by the differential tests.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "logm/record.hpp"

namespace dla::logm {

// Orders heterogeneous values for the postings map: numerics before text,
// numerics by the same semantics as Value::compare (exact for Int/Int,
// via double otherwise), text lexicographically. Unlike Value::compare it
// never throws, so an index can hold mixed-type columns.
struct ValueLess {
  bool operator()(const Value& a, const Value& b) const {
    const bool a_text = a.type() == ValueType::Text;
    const bool b_text = b.type() == ValueType::Text;
    if (a_text != b_text) return b_text;  // numerics sort first
    if (a_text) return a.as_text() < b.as_text();
    if (a.type() == ValueType::Int && b.type() == ValueType::Int)
      return a.as_int() < b.as_int();
    return a.as_real() < b.as_real();
  }
};

// Sorted value -> glsn-postings index for one attribute, plus the column
// stats the planner's selectivity estimates read.
class AttributeIndex {
 public:
  void add(const Value& value, Glsn glsn);
  void remove(const Value& value, Glsn glsn);

  // Sorted glsn run for values equivalent to `value`; nullptr when absent.
  const std::vector<Glsn>* equal(const Value& value) const;

  // Sorted glsn run for the half-open/closed interval. Either bound may be
  // null (unbounded). `*_inclusive` selects <= / >= against the bound.
  std::vector<Glsn> range(const Value* lo, bool lo_inclusive, const Value* hi,
                          bool hi_inclusive) const;

  std::size_t rows() const { return rows_; }
  std::size_t distinct() const { return postings_.size(); }
  const Value* min_value() const;
  const Value* max_value() const;

 private:
  std::map<Value, std::vector<Glsn>, ValueLess> postings_;
  std::size_t rows_ = 0;
};

class FragmentStore {
 public:
  // Glsn-aligned value column: cells[r] belongs to row_glsns()[r]; nullptr
  // where the fragment has no such attribute.
  struct Column {
    std::vector<const Value*> cells;
    std::size_t present = 0;  // non-null cell count
  };

  FragmentStore() = default;
  // Copies rebuild the columnar mirror: cells point into the owning map.
  FragmentStore(const FragmentStore& other);
  FragmentStore& operator=(const FragmentStore& other);
  // Moves keep the mirror: map nodes survive a container move.
  FragmentStore(FragmentStore&&) = default;
  FragmentStore& operator=(FragmentStore&&) = default;

  // Inserts or overwrites the fragment for its glsn.
  void put(Fragment fragment);
  // nullptr when the glsn is unknown.
  const Fragment* get(Glsn glsn) const;
  bool erase(Glsn glsn);
  std::size_t size() const { return fragments_.size(); }

  // Scan in glsn order; the predicate sees each fragment. Templated so the
  // fallback scan path does not allocate a std::function per call.
  template <class Predicate>
  std::vector<Glsn> select(Predicate&& predicate) const {
    std::vector<Glsn> out;
    for (const auto& [glsn, frag] : fragments_) {
      if (predicate(frag)) out.push_back(glsn);
    }
    return out;
  }

  // All glsns held, in order.
  std::vector<Glsn> glsns() const;

  // Fold every fragment into a caller-supplied visitor, in glsn order —
  // used by the distributed integrity checker.
  template <class Visitor>
  void for_each(Visitor&& visit) const {
    for (const auto& [glsn, frag] : fragments_) visit(frag);
  }

  // Columnar mirror / index maintenance toggle. Disabling drops the mirror
  // and turns the store into the naive-scan baseline; re-enabling rebuilds
  // it from the fragment map.
  void set_indexing(bool enabled);
  bool indexing() const { return indexing_; }

  // ---- columnar accessors (empty/null while indexing is off) ----
  std::size_t row_count() const { return rows_.size(); }
  const std::vector<Glsn>& row_glsns() const { return rows_; }
  const Column* column(const std::string& attr) const;
  const AttributeIndex* attr_index(const std::string& attr) const;
  // Row position of a held glsn (binary search over row_glsns()).
  std::optional<std::size_t> row_of(Glsn glsn) const;

 private:
  void attach(const Fragment& fragment);
  void detach(Glsn glsn);
  void rebuild();

  std::map<Glsn, Fragment> fragments_;
  bool indexing_ = true;

  // Columnar mirror, maintained only while indexing_ is on.
  std::vector<Glsn> rows_;
  std::map<std::string, Column> columns_;
  std::map<std::string, AttributeIndex> indexes_;
};

enum class Op : std::uint8_t { Read = 0, Write = 1, Delete = 2 };

std::string_view to_string(Op op);

// Table 6: Ticket ID -> (operation types, authorized glsn set).
class AccessControlTable {
 public:
  void grant(const std::string& ticket_id, std::set<Op> ops);
  // Adds glsn to the ticket's entry (the DLA assigns each new glsn to the
  // requesting ticket).
  void authorize(const std::string& ticket_id, Glsn glsn);
  void revoke(const std::string& ticket_id, Glsn glsn);

  bool allowed(const std::string& ticket_id, Op op, Glsn glsn) const;
  std::set<Glsn> glsns_of(const std::string& ticket_id) const;
  std::vector<std::string> ticket_ids() const;

  // Canonical per-ticket rendering ("T1:R,W:139aef78,139aef80") used as set
  // elements in the ACL consistency audit.
  std::vector<std::string> canonical_entries() const;

  bool operator==(const AccessControlTable&) const = default;

 private:
  struct Entry {
    std::set<Op> ops;
    std::set<Glsn> glsns;
    bool operator==(const Entry&) const = default;
  };
  std::map<std::string, Entry> entries_;
};

}  // namespace dla::logm
