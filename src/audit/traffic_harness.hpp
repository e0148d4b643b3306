// Deterministic open-loop traffic harness (ROADMAP item 5).
//
// Replays a configurable scenario — Zipf-skewed identities, mixed
// read/write/audit/delete traffic, bursty (Poisson-batch and on/off)
// arrivals, principal (ticket) churn across many concurrent sessions —
// against a live Cluster on either transport backend. Injection is
// *open-loop*: every operation is issued from a simulator timer at its
// pre-computed arrival time, never gated on the completion of earlier
// operations, so the measured latency (completion − scheduled arrival, in
// simulated microseconds) includes real queueing delay at the sequencer,
// the attribute owners and on bandwidth-limited links.
//
// Every run evaluates the chaos-explorer invariants I1–I5 over the full
// trace — generalized to concurrent traffic:
//
//   I2 (monotonicity) becomes a real-time order check: if write A completed
//      before write B arrived, glsn(A) < glsn(B).
//   I5 (result equivalence) becomes a linearizability bounds check: a
//      completed query's result set must contain every matching record
//      whose write *by the same session* completed before the query
//      arrived (session causality: an owner stores a fragment before it
//      acks it, and every query reads the owners' live stores) and
//      may only contain matching records whose write had at least arrived
//      before the query completed. Post-drain probe queries are then
//      checked for exact equality against a local full-record mirror.
//
// and computes the Eq. 10–13 confidentiality metrics (C_store, C_auditing,
// C_DLA) over the generated workload. Scenarios run in pairs — fault-free
// and under seeded net::ChaosEngine chaos — and compare_runs() asserts the
// pair agrees on every certified result (see docs/TRAFFIC.md).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "audit/cluster.hpp"
#include "audit/invariants.hpp"
#include "audit/metrics.hpp"
#include "audit/wire.hpp"
#include "net/chaos.hpp"

namespace dla::audit {

// ------------------------------------------------------------ scenarios --
enum class OpClass : std::uint8_t { Write, Query, Aggregate, Delete, Integrity };
std::string_view to_string(OpClass cls);

enum class ArrivalProcess : std::uint8_t {
  Uniform,       // fixed inter-arrival gap (mean_gap_us)
  PoissonBatch,  // exponential gaps between batches of 1..batch_max ops
  OnOff,         // uniform rate inside on-windows, silence in off-windows
};

// Relative traffic mix; weights need not sum to 1.
struct TrafficMix {
  double write = 1.0;
  double query = 1.0;
  double aggregate = 0.0;
  double del = 0.0;        // `delete` is reserved
  double integrity = 0.0;  // accumulator integrity circulations
};

struct AggregateSpec {
  std::string criterion;
  AggOp op = AggOp::Count;
  std::string attr;
};

struct ScenarioSpec {
  std::string name;
  std::uint64_t seed = 1;

  // Cluster shape. `user_nodes` is the number of concurrent sessions, each
  // with its own principal/ticket; record-level identities are separate
  // (see `identities`). paper partition requires dla_count == 4.
  std::size_t dla_count = 4;
  std::size_t user_nodes = 4;
  std::size_t set_chunk_size = 64;
  bool certify_reports = true;

  // Closed-loop preload before the open phase (gives queries, deletes and
  // integrity audits something to hit from arrival 0).
  std::size_t preload_records = 24;

  // Open-loop phase.
  std::size_t ops = 120;
  ArrivalProcess arrivals = ArrivalProcess::Uniform;
  net::SimTime mean_gap_us = 4000;
  std::size_t batch_max = 8;          // PoissonBatch
  net::SimTime on_window_us = 20000;  // OnOff
  net::SimTime off_window_us = 60000;
  TrafficMix mix;

  // Record-identity population: `identities` distinct `id` values drawn
  // Zipf(zipf_s)-skewed (0 = uniform). Millions are fine — the sampler is
  // a binary search over a cumulative harmonic table.
  std::size_t identities = 1000;
  double zipf_s = 0.0;
  std::size_t transactions = 100;

  // Principal/ticket churn: every `reissue_every` ops the issuing session
  // is handed a freshly-issued auditor ticket (new ticket id). Requires
  // mix.del == 0: a record can only be deleted under the ticket that
  // logged it, so ticket churn plus deletes is rejected at generation.
  std::size_t reissue_every = 0;

  // A delete targets an earlier same-session write; its arrival is pushed
  // to at least write-arrival + this margin so the target is (all but
  // certainly) assigned by then. Unassigned targets are recorded skipped.
  net::SimTime delete_margin_us = 50000;

  // Query pool + aggregate pool (sampled uniformly per op).
  std::vector<std::string> criteria;
  std::vector<AggregateSpec> aggregates;

  // Optional per-link bandwidth cap (bytes per simulated us; 0 = off) so
  // bursts actually queue.
  double link_bytes_per_us = 0.0;

  // Durable storage: when non-empty, every DLA node runs the mmap'd
  // segment engine (docs/STORAGE.md) rooted at
  // `<storage_dir>/<transport>-<leg>/node<i>` — the per-leg subdir keeps a
  // scenario's fault-free/chaos and sim/tcp legs from colliding on one
  // directory tree. A tiny memtable threshold forces seals (and tiered
  // compactions) to fire *mid-traffic*, so the open-loop run drives the
  // full WAL -> seal -> compact lifecycle under live query/delete load.
  std::string storage_dir;
  std::size_t storage_memtable_max = 64;
  std::size_t storage_compaction_fanout = 2;

  // Chaos half of the pair (applied only when RunOptions.chaos is set).
  net::ChaosConfig chaos;
  std::size_t chaos_outages = 0;
  std::size_t chaos_partitions = 0;
  net::SimTime chaos_horizon_us = 0;
  net::SimTime chaos_window_us = 0;
  // Lossy tier: requests may fail; safety checks filter to known records
  // and quiescence is not required (mirrors the chaos explorer's tier B).
  bool lossy = false;

  // Fault-injection canary: rewind every node's glsn counter mid-run; the
  // run's I1/I2 checks MUST then report violations (the driver asserts the
  // harness catches it and prints the reproducing seed).
  bool inject_rewind = false;
};

// ------------------------------------------------------- generated ops --
struct GeneratedOp {
  OpClass cls = OpClass::Write;
  net::SimTime arrival = 0;  // us after the open phase starts
  std::size_t session = 0;   // issuing user-node index
  std::map<std::string, logm::Value> attrs;  // Write
  std::string criterion;                     // Query / Aggregate
  AggOp agg_op = AggOp::Count;
  std::string agg_attr;
  // Delete: index (into the op stream) of the targeted write.
  // Integrity: index of the targeted preload record.
  std::size_t target = SIZE_MAX;
  bool reissue_ticket = false;  // principal churn fires before this op
};

// Deterministic: identical (spec) -> bit-identical stream. Exposed for the
// seed-determinism test; run_scenario calls it internally. Throws
// std::invalid_argument for inconsistent specs (churn + deletes).
std::vector<GeneratedOp> generate_ops(const ScenarioSpec& spec);

// ------------------------------------------------------------- results --
struct LatencyStats {
  std::uint64_t count = 0;
  net::SimTime p50 = 0, p95 = 0, p99 = 0, p999 = 0, max = 0;
};

// One op's fate in a run. Times are relative to the open-phase start;
// completed == 0 means the callback never fired (lossy chaos only).
struct OpRecord {
  OpClass cls = OpClass::Write;
  std::size_t session = 0;
  net::SimTime scheduled = 0;
  net::SimTime issued = 0;
  net::SimTime completed = 0;
  bool done = false;
  bool ok = false;
  bool skipped = false;  // delete/integrity whose target never materialized
  bool certified = false;
  std::optional<logm::Glsn> glsn;  // Write
  std::vector<logm::Glsn> result;  // Query
  double agg_value = 0.0;          // Aggregate
  std::uint64_t agg_count = 0;
};

struct RunResult {
  std::string scenario;
  std::string transport;  // "sim" | "tcp"
  bool chaos = false;
  std::uint64_t chaos_seed = 0;

  std::vector<std::optional<logm::Glsn>> preload;  // assigned, issue order
  std::vector<OpRecord> ops;                       // open-loop, stream order
  std::vector<QueryOutcome> probes;                // post-drain, criteria order

  net::SimTime duration_us = 0;  // open phase span (arrival 0 -> drained)
  std::map<OpClass, LatencyStats> latency;

  // Continuous evaluation over the full trace.
  InvariantReport invariants;

  // Eq. 10-13 over the generated workload (chaos-independent: the op
  // stream is fixed per spec, so the pair must agree bit-for-bit).
  double c_store = 0.0;
  double c_auditing = 0.0;
  double c_dla = 0.0;

  // Counter snapshots for this run (process counters are reset at start).
  QueryEngineCounters engine;
  WireRejectCounters rejects;
  CryptoOpCounters crypto_ops;
  ChaosCounters chaos_counters;
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  // Per protocol-class delivered-message accounting, fed by the simulator
  // deliver hook through classify_message (all MsgTypes enumerated).
  std::map<std::string, std::uint64_t> messages_by_class;

  std::size_t completed_ops = 0;
  std::size_t failed_ops = 0;
  std::size_t skipped_ops = 0;
  double completion_rate = 0.0;  // completed / (ops - skipped)
};

struct RunOptions {
  Cluster::TransportKind transport = Cluster::TransportKind::Sim;
  bool chaos = false;
  std::uint64_t chaos_seed = 1;
};

// Execute one scenario once. Builds the cluster (DLA_TRANSPORT env still
// overrides the transport, exactly as for every other Cluster), preloads,
// injects the op stream open-loop, drains, probes, then evaluates
// invariants and confidentiality metrics. Never throws on protocol-level
// failures — those land in RunResult::invariants.
RunResult run_scenario(const ScenarioSpec& spec, const RunOptions& opts);

// Fault-free / chaos pair agreement: every certified result the two runs
// both completed on a quiescent region (no mutating op overlapped the
// query in either run) must match bit-for-bit, with glsns compared through
// the op-stream identity (assigned values legitimately differ under
// chaos). Confidentiality metrics must agree exactly.
struct PairReport {
  std::vector<std::string> violations;
  bool ok() const { return violations.empty(); }
  std::string summary() const;
};
PairReport compare_runs(const ScenarioSpec& spec, const RunResult& fault_free,
                        const RunResult& chaotic);

// Protocol-class label for a message type, used for per-class accounting.
// Exhaustive over MsgType (lint: msgtype-switch) so a new message type
// cannot silently bypass the harness's accounting.
std::string_view classify_message(MsgType type);

}  // namespace dla::audit
