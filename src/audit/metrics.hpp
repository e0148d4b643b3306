// Auditing-confidentiality metrics (Section 5 of the paper, Eqs. 10-13).
//
//   C_store(Log)    = v*u / w        (Eq. 10)
//   C_auditing(Q)   = (t+q) / (s+q)  (Eq. 11)
//   C_query(Q, Log) = C_auditing * C_store   (Eq. 12)
//   C_DLA           = average C_query over a query/log workload (Eq. 13)
//
// where w = attributes in the log record, v = undefined (C*) attributes,
// u = minimum DLA nodes covering the record's attributes, s = atomic
// predicates in the normalized criterion, t = cross (multi-node) atomic
// predicates, q = conjuncts.
#pragma once

#include <cstdint>
#include <vector>

#include "audit/query.hpp"
#include "logm/record.hpp"
#include "net/sim.hpp"

namespace dla::audit {

// Eq. 10. w is taken from the record's attribute count; v counts attributes
// the schema marks undefined; u from the partition coverage.
double store_confidentiality(const logm::LogRecord& record,
                             const logm::Schema& schema,
                             const logm::AttributePartition& partition);

// Eq. 11, computed on the normalized (negation-free, conjunctive) form.
// A subquery's predicates count as cross (towards t) when the subquery
// spans more than one DLA node.
// An empty subquery list (a degenerate/unparseable criterion) yields 0.0:
// Eq. 11 is undefined at s + q = 0, and a no-op query reveals nothing, so
// it must not score as confidential auditing work. Guarded against the
// division by zero a naive (t+q)/(s+q) would hit.
double auditing_confidentiality(const std::vector<Subquery>& subqueries);

// Eq. 12.
double query_confidentiality(const std::vector<Subquery>& subqueries,
                             const logm::LogRecord& record,
                             const logm::Schema& schema,
                             const logm::AttributePartition& partition);

// Eq. 13: mean of query_confidentiality over every (query, record) pair.
double dla_confidentiality(
    const std::vector<std::vector<Subquery>>& normalized_queries,
    const std::vector<logm::LogRecord>& records, const logm::Schema& schema,
    const logm::AttributePartition& partition);

// Convenience: parse + normalize + classify a criterion in one step.
std::vector<Subquery> normalize(std::string_view criterion,
                                const logm::Schema& schema,
                                const logm::AttributePartition& partition);

// ---- crypto cost counters ------------------------------------------------
// Process-wide modular-exponentiation counters (the dominant cost of the
// confidential protocols), re-exported from the crypto layer so audit-level
// drivers and benchmarks can report protocol cost without reaching into
// crypto internals. modexp_count counts individual exponentiations across
// all engines; modexp_batch_count counts pow_batch dispatches (ring-pass
// hops, bulk decrypts).
struct CryptoOpCounters {
  std::uint64_t modexp_count = 0;
  std::uint64_t modexp_batch_count = 0;
};
CryptoOpCounters crypto_op_counters();
void reset_crypto_op_counters();

// ---- query-engine counters -----------------------------------------------
// Process-wide counters for the compiled local query engine over memtable
// sources (see docs/QUERY_ENGINE.md; segments count into StorageCounters):
// how often an index access path ran, how many rows the residual/fallback
// scans touched, how many conjuncts were skipped because the running glsn
// intersection emptied or an absent column ended the plan, and how often the
// planner fell back to a full scan (no usable index, or indexing disabled on
// the store).
struct QueryEngineCounters {
  std::uint64_t index_hits = 0;
  std::uint64_t rows_scanned = 0;
  std::uint64_t conjuncts_short_circuited = 0;
  std::uint64_t planner_fallbacks = 0;
};
QueryEngineCounters query_engine_counters();
void reset_query_engine_counters();

namespace detail {
// Mutable handle for the engine itself; drivers read through the accessors.
QueryEngineCounters& query_engine_counters_mut();
}  // namespace detail

// ---- gateway result-cache counters (always zero) -------------------------
// The gateway keeps no result cache (every query reads the owners' live
// stores), so these always read zero. The struct and its two accessors
// exist only because the wall-clock benchmark (perfbench/) links them.
struct GatewayCacheCounters {
  // DLA-LINT-ALLOW(metrics-registry): always 0, no cache; perfbench reads it
  std::uint64_t cache_hits = 0;
  // DLA-LINT-ALLOW(metrics-registry): always 0, no cache; perfbench reads it
  std::uint64_t cache_misses = 0;
  // DLA-LINT-ALLOW(metrics-registry): always 0, no cache; perfbench reads it
  std::uint64_t cache_invalidations = 0;
};
GatewayCacheCounters gateway_cache_counters();
void reset_gateway_cache_counters();

// ---- wire reject counters ------------------------------------------------
// Process-wide counters for frames the protocol actors refused to act on
// (see docs/TRANSPORT.md "Parser and codec error taxonomy"): codec_rejects
// counts payloads whose decode threw net::CodecError (truncated or
// structurally malformed), trailing_rejects counts payloads that decoded
// completely but carried trailing garbage (net::Reader::expect_end), and
// parse_rejects counts well-formed payloads whose embedded audit criterion
// failed to parse. All three are hostile-input signals: a nonzero rate on a
// production deployment means someone is probing the ingestion edge.
struct WireRejectCounters {
  std::uint64_t codec_rejects = 0;
  std::uint64_t trailing_rejects = 0;
  std::uint64_t parse_rejects = 0;
};
WireRejectCounters wire_reject_counters();
void reset_wire_reject_counters();

namespace detail {
WireRejectCounters& wire_reject_counters_mut();
}  // namespace detail

// ---- storage counters ------------------------------------------------------
// Process-wide counters for the pluggable storage layer (logm::SegmentEngine,
// see docs/STORAGE.md): seal/compaction activity, how often the segment query
// planner's zone maps pruned a whole segment versus probing its value order,
// how many segment cells were actually decoded, snapshot read-transaction
// pressure (pinned_readers is a gauge, stalled_readers counts long-running
// transactions reported by the tracker), what replica clones shared versus
// copied, and recovery work (WAL frames replayed, orphan files swept).
// Re-exported from logm so audit-level drivers and benchmarks report storage
// cost without reaching into the engine.
struct StorageCounters {
  std::uint64_t segments_sealed = 0;
  std::uint64_t segment_compactions = 0;
  std::uint64_t segment_probe_hits = 0;
  std::uint64_t zone_map_skips = 0;
  std::uint64_t segment_rows_decoded = 0;
  std::uint64_t pinned_readers = 0;  // gauge: currently open read txns
  std::uint64_t stalled_readers = 0;
  std::uint64_t clone_shared_segments = 0;
  std::uint64_t clone_memtable_rows = 0;
  std::uint64_t mirror_rebuild_rows = 0;
  std::uint64_t wal_frames_replayed = 0;
  std::uint64_t orphan_segments_removed = 0;
};
StorageCounters storage_counters();
void reset_storage_counters();

// ---- chaos counters ------------------------------------------------------
// Fault-injection counters surfaced from the network layer (net::ChaosEngine
// via net::NetworkStats) so audit-level drivers can report how much chaos a
// run actually absorbed alongside the protocol metrics.
struct ChaosCounters {
  std::uint64_t chaos_drops = 0;          // messages dropped by fault sampling
  std::uint64_t duplicates_injected = 0;  // extra deliveries injected
  std::uint64_t jitter_events = 0;        // deliveries given extra delay
};
ChaosCounters chaos_counters(const net::Simulator& sim);

}  // namespace dla::audit
