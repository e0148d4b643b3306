#include "audit/metrics.hpp"

#include "crypto/modexp_engine.hpp"
#include "logm/storage_stats.hpp"

namespace dla::audit {

double store_confidentiality(const logm::LogRecord& record,
                             const logm::Schema& schema,
                             const logm::AttributePartition& partition) {
  const std::size_t w = record.attrs.size();
  if (w == 0) return 0.0;
  std::size_t v = 0;
  for (const auto& [name, value] : record.attrs) {
    if (schema.contains(name) && schema.at(name).undefined) ++v;
  }
  const std::size_t u = partition.covering_nodes(record);
  return static_cast<double>(v) * static_cast<double>(u) /
         static_cast<double>(w);
}

double auditing_confidentiality(const std::vector<Subquery>& subqueries) {
  std::size_t s = 0, t = 0;
  const std::size_t q = subqueries.size();
  for (const auto& sq : subqueries) {
    PredicateStats stats = predicate_stats(sq.expr);
    s += stats.atomic;
    if (!sq.local()) t += stats.atomic;
  }
  // s + q == 0 only for an empty subquery list; Eq. 11 is undefined there
  // and a no-op criterion audits nothing (see header).
  if (s + q == 0) return 0.0;
  return static_cast<double>(t + q) / static_cast<double>(s + q);
}

double query_confidentiality(const std::vector<Subquery>& subqueries,
                             const logm::LogRecord& record,
                             const logm::Schema& schema,
                             const logm::AttributePartition& partition) {
  return auditing_confidentiality(subqueries) *
         store_confidentiality(record, schema, partition);
}

double dla_confidentiality(
    const std::vector<std::vector<Subquery>>& normalized_queries,
    const std::vector<logm::LogRecord>& records, const logm::Schema& schema,
    const logm::AttributePartition& partition) {
  if (normalized_queries.empty() || records.empty()) return 0.0;
  double total = 0.0;
  for (const auto& query : normalized_queries) {
    for (const auto& record : records) {
      total += query_confidentiality(query, record, schema, partition);
    }
  }
  return total /
         (static_cast<double>(normalized_queries.size()) *
          static_cast<double>(records.size()));
}

std::vector<Subquery> normalize(std::string_view criterion,
                                const logm::Schema& schema,
                                const logm::AttributePartition& partition) {
  Expr ast = parse(criterion, schema);
  Expr nf = push_negations(ast);
  return classify(to_conjunctive(nf), partition);
}

CryptoOpCounters crypto_op_counters() {
  crypto::ModExpStats stats = crypto::modexp_stats();
  return CryptoOpCounters{stats.modexp_count, stats.modexp_batch_count};
}

void reset_crypto_op_counters() { crypto::reset_modexp_stats(); }

namespace detail {
QueryEngineCounters& query_engine_counters_mut() {
  static QueryEngineCounters counters;
  return counters;
}
}  // namespace detail

QueryEngineCounters query_engine_counters() {
  return detail::query_engine_counters_mut();
}

void reset_query_engine_counters() {
  detail::query_engine_counters_mut() = QueryEngineCounters{};
}

GatewayCacheCounters gateway_cache_counters() { return {}; }

void reset_gateway_cache_counters() {}

namespace detail {
WireRejectCounters& wire_reject_counters_mut() {
  static WireRejectCounters counters;
  return counters;
}
}  // namespace detail

WireRejectCounters wire_reject_counters() {
  return detail::wire_reject_counters_mut();
}

void reset_wire_reject_counters() {
  detail::wire_reject_counters_mut() = WireRejectCounters{};
}

StorageCounters storage_counters() {
  const logm::StorageStats& st = logm::storage_stats();
  StorageCounters out;
  out.segments_sealed = st.segments_sealed;
  out.segment_compactions = st.segment_compactions;
  out.segment_probe_hits = st.segment_probe_hits;
  out.zone_map_skips = st.zone_map_skips;
  out.segment_rows_decoded = st.segment_rows_decoded;
  out.pinned_readers = st.pinned_readers;
  out.stalled_readers = st.stalled_readers;
  out.clone_shared_segments = st.clone_shared_segments;
  out.clone_memtable_rows = st.clone_memtable_rows;
  out.mirror_rebuild_rows = st.mirror_rebuild_rows;
  out.wal_frames_replayed = st.wal_frames_replayed;
  out.orphan_segments_removed = st.orphan_segments_removed;
  return out;
}

void reset_storage_counters() { logm::reset_storage_stats(); }

ChaosCounters chaos_counters(const net::Simulator& sim) {
  const net::NetworkStats& stats = sim.stats();
  return ChaosCounters{stats.chaos_drops, stats.duplicates_injected,
                       stats.jitter_events};
}

}  // namespace dla::audit
