// Workloads of the DLA benchmark: seeded inputs and one measured round.
//
// A round builds a fresh in-process 4-node cluster (paper partition,
// certified reports), preloads it through the logging protocol, then runs a
// fixed, seed-derived op stream closed-loop from a few sessions while the
// benchmark times every op and every simulator step. Counts (messages,
// bytes, modexps, index hits, seals) are a pure function of the seed, so
// two rounds with one seed must agree on them exactly.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "audit/wire.hpp"
#include "logm/record.hpp"
#include "net/transport.hpp"

namespace perfbench {

class Tracer;

enum class OpKind : std::uint8_t {
  Write,
  Delete,
  Integrity,
  QueryLocal,
  QueryCross,
  Aggregate
};
inline constexpr std::size_t kOpKinds = 6;
// Op issues between two clock marks of a round (RoundResult::mark_wall_ns).
inline constexpr std::size_t kMarkEvery = 64;
const char* op_name(OpKind kind);

// Relative op mix; weights need not sum to 1.
struct Mix {
  double write = 0, del = 0, integrity = 0;
  double query_local = 0, query_cross = 0, aggregate = 0;
};

struct WorkloadSpec {
  std::string name;
  bool durable = false;  // SegmentEngine per node instead of in-memory
  std::size_t sessions = 4;
  std::size_t preload = 0;  // records logged through the protocol at setup
  std::size_t ops = 0;      // op stream length per round, all sessions
  Mix mix;
  std::size_t users = 100;         // distinct `id` values
  std::size_t transactions = 100;  // distinct `Tid` values
};

// The named workloads; `scale` < 1 shrinks preload and op counts (smoke).
// Throws std::invalid_argument for an unknown name.
WorkloadSpec workload_spec(const std::string& name, double scale);

struct Criterion {
  std::string text;
  std::string shape;  // equality, range, in_fan, conjunction, fallback,
                      // intersect, union
  bool cross = false;  // from audit::normalize(): subqueries span > 1 node
};

struct AggSpec {
  std::string criterion;
  dla::audit::AggOp op = dla::audit::AggOp::Count;
  std::string attr;  // Sum: numeric, non-negative attribute
};

struct Op {
  OpKind kind = OpKind::Write;
  std::size_t session = 0;
  std::map<std::string, dla::logm::Value> attrs;  // Write
  std::size_t pick = 0;    // Query: Inputs::criteria; Aggregate: aggregates
  std::size_t target = 0;  // Delete: op index of the write; Integrity:
                           // preload index
};

struct Inputs {
  std::uint64_t seed = 1;
  std::vector<dla::logm::LogRecord> preload;
  std::vector<Criterion> criteria;
  std::vector<AggSpec> aggregates;
  std::vector<Op> ops;  // stream order; a session runs its own ops in order
};

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed);

// One op's observed fate. Sim times are simulated us since the phase start.
struct OpRecord {
  bool done = false;
  bool ok = false;     // the service reported success
  bool wrong = false;  // the oracle rejected the result
  std::uint64_t sim_issued = 0, sim_done = 0;
  std::int64_t wall_issued_ns = 0, wall_done_ns = 0;
  std::optional<dla::logm::Glsn> glsn;  // Write
  dla::logm::Glsn target_glsn = 0;      // Delete / Integrity
  std::vector<dla::logm::Glsn> result;  // Query
  double agg_value = 0.0;               // Aggregate
  std::uint64_t agg_count = 0;
};

struct RoundOptions {
  std::string storage_dir;     // durable workloads: wiped before and after
  Tracer* tracer = nullptr;    // traced round when set
  bool probes = false;         // post-run exact probe queries
  bool tamper = false;         // oracle self-test: corrupt one query result
};

struct RoundResult {
  double setup_s = 0.0;
  // Wall clock, ns, at the setup's start and after the cluster's build and
  // each preload window: the same work in every round between two marks.
  std::vector<std::int64_t> setup_mark_ns;
  double phase_s = 0.0;  // op phase wall time
  double cpu_s = 0.0;    // process CPU during the op phase
  // Wall and process CPU clocks, ns, at the op phase's start, at every
  // kMarkEvery-th op issue and at its end. The simulator is deterministic,
  // so the stretch between two marks holds the same work in every round.
  std::vector<std::int64_t> mark_wall_ns, mark_cpu_ns;
  // Peak RSS from the start of setup to the end of the op phase, MB: the
  // service's memory plus the inputs, before the oracle and probes exist.
  double peak_rss_mb = 0.0;
  std::vector<OpRecord> records;            // parallel to Inputs::ops
  std::vector<dla::logm::Glsn> preload_glsns;
  std::vector<std::string> violations;      // oracle findings
  // Deterministic counts of the op phase (the drift check compares them).
  std::map<std::string, std::uint64_t> counts;
  // Traced rounds: step wall time per message class ("timer" for timers),
  // and the phase's own (harness) time outside any step.
  std::map<std::string, std::int64_t> class_ns;
  std::int64_t harness_ns = 0;
  std::vector<dla::net::Message> frames;  // traced: first delivered messages
  // Durable workloads: storage bytes for write/space amplification.
  double storage_written_bytes = 0, storage_live_bytes = 0;
  double user_written_bytes = 0, user_live_bytes = 0;
};

RoundResult run_round(const WorkloadSpec& spec, const Inputs& inputs,
                      const RoundOptions& options);

// Records alive after the round (preload + acked writes not deleted), in
// glsn order: the input of the timed local-query layer calls.
std::vector<dla::logm::LogRecord> live_records(const Inputs& inputs,
                                               const RoundResult& round);

}  // namespace perfbench
