// Shared workload-generation helpers for tests, benchmarks and the traffic
// harness driver.
//
// Three near-identical copies of "seed an RNG, build a WorkloadSpec, call
// logm::generate_workload, pour the records into stores / a cluster" used
// to live in tests/local_query_test.cpp, tests/chaos_explorer_test.cpp and
// bench/bench_query_processing.cpp. They are folded together here so every
// driver draws the exact same deterministic streams: a (seed, count) pair
// names one record stream everywhere, and the canonical criteria suites are
// defined once. tests/workload_gen_test.cpp pins the seed-determinism
// contract.
//
// Header-only on purpose: consumed by test binaries, bench binaries and
// tools/dla_traffic alike without a library target.
#pragma once

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "audit/cluster.hpp"
#include "crypto/rng.hpp"
#include "logm/store.hpp"
#include "logm/workload.hpp"

namespace dla::testkit {

// The canonical seeded record stream: every consumer that needs `count`
// generated e-commerce records at seed `seed` must call this, so identical
// (seed, count) pairs are bit-identical across binaries.
inline std::vector<logm::LogRecord> make_records(std::uint64_t seed,
                                                 std::size_t count,
                                                 std::size_t users = 10) {
  crypto::ChaCha20Rng rng(seed);
  logm::WorkloadSpec spec;
  spec.records = count;
  spec.users = users;
  return logm::generate_workload(spec, rng);
}

// Pour records into a FragmentStore; `indexed = false` yields the naive
// scan baseline store used by differential tests.
inline logm::FragmentStore make_store(
    const std::vector<logm::LogRecord>& records, bool indexed = true) {
  logm::FragmentStore store;
  if (!indexed) store.set_indexing(false);
  for (const logm::LogRecord& rec : records) {
    store.put(logm::Fragment{rec.glsn, rec.attrs});
  }
  return store;
}

// The [2/5, 3/5] quantile bounds of the Time column — the mid-density range
// criterion of the scaling suite is built from these.
inline std::pair<std::int64_t, std::int64_t> time_quantiles(
    const std::vector<logm::LogRecord>& records) {
  std::vector<std::int64_t> times;
  times.reserve(records.size());
  for (const auto& rec : records) times.push_back(rec.attrs.at("Time").as_int());
  std::sort(times.begin(), times.end());
  return {times[times.size() * 2 / 5], times[times.size() * 3 / 5]};
}

// Cluster-machinery criteria (the chaos explorer's suite): a single-node
// local plan, the ring set intersection, a set union, and the TTP-mediated
// secure comparison joined with an intersection.
inline const std::vector<std::string>& cluster_criteria() {
  static const std::vector<std::string> kCriteria = {
      "id = 'U1' AND C2 < 100.0",
      "id = 'U1' AND protocl = 'UDP'",
      "id = 'U3' OR protocl = 'TCP'",
      "C1 < C2 AND Tid = 'T1100267'",
  };
  return kCriteria;
}

// Local-planner differential suite (test_local_query, test_storage_engine):
// every plan shape over the generated stream, answered by the memtable and
// the segment column sources alike — indexable equality/range conjunctions,
// fused and crossed ranges, IN-fans and ordered OR-fans, non-indexable
// residuals (!=, attr-vs-attr, NOT, mixed-attribute OR), equalities at the
// edge of or outside the zone maps, and empty-result short circuits.
inline const std::vector<std::string>& planner_criteria() {
  static const std::vector<std::string> kCriteria{
      "id = 'U3'",
      "protocl = 'UDP'",
      "C2 > 500.0",
      "C2 >= 100.0 AND C2 <= 900.0",
      "Time > 1021234000 AND id = 'U1'",
      "id = 'U3' AND C2 > 500.0 AND protocl = 'TCP'",
      "id IN ('U1', 'U3', 'U5')",
      "C1 BETWEEN 2 AND 7",
      "id != 'U2'",
      "C1 < C2",
      "C1 < C2 AND Tid = 'T3'",
      "NOT (id = 'U1' OR C2 > 800.0)",
      "id = 'U1' OR protocl = 'TCP'",
      "id = 'NO_SUCH_USER' AND C2 > 0.0",
      "id = 'U1' AND id = 'U2'",
      "(id = 'U1' AND C2 > 200.0) OR Tid = 'T5'",
      "C2 < 50.0 OR C2 > 950.0",
      "C2 > 900.0 AND C2 < 100.0",
      // C1 is drawn from [0, 100): 99 falls inside only the few zone maps
      // that hold it, 100 outside every one.
      "C1 = 99",
      "C1 = 100",
  };
  return kCriteria;
}

// Local-engine scaling suite (bench_query_processing): one criterion per
// access-path shape. The Time range is derived from the workload's own
// quantiles so its selectivity tracks the record count.
struct ScalingCriterion {
  std::string text;
  const char* kind;
};

inline std::vector<ScalingCriterion> scaling_suite(std::int64_t t_lo,
                                                   std::int64_t t_hi) {
  return {
      {"id = 'U3'", "equality"},
      {"protocl = 'TCP'", "equality"},
      {"C2 > 900.0", "range"},
      {"Time >= " + std::to_string(t_lo) +
           " AND Time <= " + std::to_string(t_hi),
       "range"},
      {"id = 'U3' AND C2 > 500.0", "conjunction"},
      {"id IN ('U1', 'U3', 'U5')", "in-fan"},
      {"C1 < C2", "fallback"},
  };
}

// The paper-table cluster the chaos explorer sweeps. `indexed` toggles the
// FragmentStore columnar indexes (the oracle runs scan-mode so tier-A
// equality is an indexed-vs-scan differential); `set_chunk_size` likewise
// pits chunked ring streams against the monolithic oracle (0 = legacy).
inline audit::Cluster make_paper_cluster(std::uint64_t seed,
                                         bool indexed = true,
                                         std::size_t set_chunk_size = 2) {
  audit::Cluster::Options opts;
  opts.schema = logm::paper_schema();
  opts.dla_count = 4;
  opts.user_count = 1;
  opts.partition = logm::paper_partition();
  opts.seed = seed;
  opts.auditor_users = true;
  opts.set_chunk_size = set_chunk_size;
  audit::Cluster cluster(std::move(opts));
  if (!indexed) {
    for (std::size_t i = 0; i < cluster.dla_count(); ++i) {
      cluster.dla(i).store().set_indexing(false);
      cluster.dla(i).replica_store().set_indexing(false);
    }
  }
  return cluster;
}

// One paper workload pass: sequentially log Table 1, run every
// cluster_criteria() entry, then audit the first logged glsn. Each step
// drains the simulator before the next is issued, so glsn assignment order
// is the issue order regardless of chaos timing.
struct PaperWorkloadRun {
  // Per paper-table record: assigned glsn, or nullopt when the log never
  // completed (only possible under lossy chaos).
  std::vector<std::optional<logm::Glsn>> glsns;
  // Per cluster_criteria() entry: outcome, or nullopt if no callback fired.
  std::vector<std::optional<audit::QueryOutcome>> queries;
  std::optional<bool> integrity_ok;
};

// ---- process memory probes (storage benchmarks) ---------------------------
// Current and peak resident set in KiB from /proc/self/status; 0 on
// platforms without procfs (the storage benches then report rss_kb: 0 and
// the RSS comparison is informational-only).
inline std::size_t read_proc_status_kb(const char* key) {
#if defined(__linux__)
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    std::size_t kb = 0;
    for (char c : line) {
      if (c >= '0' && c <= '9') {
        kb = kb * 10 + static_cast<std::size_t>(c - '0');
      }
    }
    return kb;
  }
#else
  (void)key;
#endif
  return 0;
}

inline std::size_t read_rss_kb() { return read_proc_status_kb("VmRSS"); }
inline std::size_t read_hwm_kb() { return read_proc_status_kb("VmHWM"); }

inline PaperWorkloadRun run_paper_workload(audit::Cluster& cluster) {
  PaperWorkloadRun out;
  auto records = logm::paper_table1_records();
  out.glsns.resize(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    cluster.user(0).log_record(
        cluster.sim(), records[i].attrs,
        [&out, i](std::optional<logm::Glsn> g) { out.glsns[i] = g; });
    cluster.run();
  }
  out.queries.resize(cluster_criteria().size());
  for (std::size_t i = 0; i < cluster_criteria().size(); ++i) {
    cluster.user(0).query(
        cluster.sim(), cluster_criteria()[i],
        [&out, i](audit::QueryOutcome o) { out.queries[i] = std::move(o); });
    cluster.run();
  }
  for (const auto& g : out.glsns) {
    if (!g) continue;
    cluster.dla(0).on_integrity_result =
        [&out](audit::SessionId, logm::Glsn, bool ok) {
          out.integrity_ok = ok;
        };
    cluster.dla(0).start_integrity_check(cluster.sim(), 0xC8A05u, *g);
    cluster.run();
    cluster.dla(0).on_integrity_result = nullptr;
    break;
  }
  return out;
}

}  // namespace dla::testkit
