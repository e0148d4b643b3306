// Log records, schemas, transactions, and attribute-partition fragmentation.
//
// Mirrors Section 2 and Section 4 of the paper:
//   Log     = {glsn, L = (l_0 .. l_m)}                         (global record)
//   Log_i   = {glsn, L_i = (l_i1 .. l_im)}, L_i subset of A_i  (fragment at P_i)
//   A_i     = attributes supported by DLA node P_i, pairwise disjoint,
//             union A_i = I (the full attribute universe)
// plus the transaction wrapper T = {R_T, E_T, L_T, tsn, ttn} of Eq. (1).
//
// "Undefined" attributes (the paper's C1, C2, ... Cn) are abstract fields
// meaningful only to the application subsystem; they raise the store
// confidentiality C_store (Eq. 10) and are flagged in the schema.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "logm/value.hpp"

namespace dla::logm {

using Glsn = std::uint64_t;

struct AttributeDef {
  std::string name;
  ValueType type = ValueType::Text;
  // True for the paper's C1..Cn attributes: only meaningful to the
  // application by private agreement, opaque to DLA nodes.
  bool undefined = false;

  bool operator==(const AttributeDef&) const = default;
};

// The attribute universe I of one application subsystem.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<AttributeDef> attrs);

  const std::vector<AttributeDef>& attributes() const { return attrs_; }
  std::size_t size() const { return attrs_.size(); }
  // Index lookup; nullopt when the attribute is not part of the schema.
  std::optional<std::size_t> index_of(const std::string& name) const;
  bool contains(const std::string& name) const {
    return index_of(name).has_value();
  }
  const AttributeDef& at(const std::string& name) const;
  // True when every attribute is in the schema and holds a value of its
  // column's kind: text in a Text column, an Int or a non-NaN Real in a
  // numeric one. Stores refuse anything else, because an ordered predicate
  // throws on text-vs-numeric and a NaN is ValueLess-equivalent to every
  // number, which would file its row under another value's postings run.
  bool admits(const std::map<std::string, Value>& attrs) const;
  // Number of undefined (C*) attributes — the v of Eq. (10).
  std::size_t undefined_count() const;

 private:
  std::vector<AttributeDef> attrs_;
  std::map<std::string, std::size_t> index_;
};

// One global audit record (a row of Table 1).
struct LogRecord {
  Glsn glsn = 0;
  std::map<std::string, Value> attrs;

  // Stable serialisation used as accumulator item and for wire transfer.
  std::string canonical() const;
  void encode(net::Writer& w) const;
  static LogRecord decode(net::Reader& r);
  bool operator==(const LogRecord&) const = default;
};

// A fragment of a record held by one DLA node (a row of Tables 2-5).
struct Fragment {
  Glsn glsn = 0;
  std::map<std::string, Value> attrs;

  std::string canonical() const;
  void encode(net::Writer& w) const;
  static Fragment decode(net::Reader& r);
  bool operator==(const Fragment&) const = default;
};

// Disjoint assignment of schema attributes to n DLA nodes (the A_i sets).
class AttributePartition {
 public:
  // Round-robin assignment of every schema attribute across n nodes.
  static AttributePartition round_robin(const Schema& schema, std::size_t n);
  // Explicit assignment; validates disjointness and coverage against schema.
  static AttributePartition explicit_sets(
      const Schema& schema, std::vector<std::vector<std::string>> sets);

  std::size_t node_count() const { return sets_.size(); }
  const std::vector<std::string>& attributes_of(std::size_t node) const;
  // Which node stores `attr`; throws std::out_of_range for unknown attrs.
  std::size_t node_for(const std::string& attr) const;

  // Split a record into node_count() fragments; every fragment carries the
  // glsn, and attribute j goes only to node_for(j) — no single DLA node can
  // reconstruct the record.
  std::vector<Fragment> fragment(const LogRecord& record) const;

  // Minimum number of nodes whose A_i cover the attributes present in
  // `record` — the u of Eq. (10).
  std::size_t covering_nodes(const LogRecord& record) const;

 private:
  std::vector<std::vector<std::string>> sets_;
  std::map<std::string, std::size_t> owner_;
};

// Transaction wrapper of Eq. (1): a sequence of events, each producing one
// log record at the node that executed it.
struct TransactionEvent {
  std::string executed_by;  // u_i
  LogRecord record;
};

struct Transaction {
  std::uint64_t tsn = 0;  // unique transaction sequence number
  std::uint64_t ttn = 0;  // transaction type number
  std::vector<TransactionEvent> events;
};

}  // namespace dla::logm
