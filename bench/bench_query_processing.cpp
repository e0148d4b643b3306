// E6 — end-to-end confidential query processing (Figures 2-3) against the
// centralized auditor of Figure 1, over a generated e-commerce log.
//
// For each criterion in the suite the binary reports, side by side:
//   * DLA: wall time, simulated messages/bytes, and the Section 5
//     confidentiality metrics of the normalized query;
//   * centralized: wall time and logical messages (confidentiality 0 —
//     the auditor sees everything).
//
// Expected shape: the centralized model wins raw latency by a wide margin
// (no protocols, no crypto); the DLA model's cost scales with the number of
// cross subqueries, buying nonzero C_auditing/C_query. Results also carry a
// correctness cross-check: both engines must return identical glsn sets.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "audit/cluster.hpp"
#include "audit/local_query.hpp"
#include "audit/metrics.hpp"
#include "baseline/centralized.hpp"
#include "logm/storage_engine.hpp"
#include "logm/store.hpp"
#include "logm/workload.hpp"
#include "workload_gen.hpp"

using namespace dla;

namespace {

// Adaptive wall-clock measurement: grows the iteration count until the
// timed block runs at least `min_ms`, then reports ns per call.
template <class Fn>
double measure_ns(Fn&& fn, double min_ms) {
  fn();  // warmup
  std::size_t iters = 1;
  for (;;) {
    auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn();
    auto t1 = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count();
    if (ns >= min_ms * 1e6 || iters >= (std::size_t{1} << 22)) {
      return ns / static_cast<double>(iters);
    }
    iters *= 4;
  }
}

// Record-count scaling of the local query engine: indexed (columnar store +
// postings indexes + selectivity-ordered plan) vs the naive scan baseline
// (same store with indexing disabled). Emits BENCH_query.json with one entry
// per (criterion, records, engine) for the perf trajectory; both engines
// must return identical glsn sets on every criterion.
int run_store_scaling(bool smoke, std::ostringstream& json) {
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{300}
            : std::vector<std::size_t>{300, 3000, 30000};
  const double min_ms = smoke ? 2.0 : 50.0;
  const logm::Schema schema = logm::paper_schema();

  bool first_entry = true;
  int mismatches = 0;

  std::cout << "local query engine scaling — indexed vs scan baseline\n\n";
  std::cout << std::left << std::setw(44) << "criterion" << std::right
            << std::setw(8) << "records" << std::setw(7) << "hits"
            << std::setw(12) << "scan_ns" << std::setw(12) << "idx_ns"
            << std::setw(9) << "speedup" << std::setw(10) << "idx_rows"
            << std::setw(7) << "match" << "\n";

  std::size_t sink = 0;
  for (std::size_t records : sizes) {
    // Record stream, stores and criteria suite come from the shared
    // testkit helpers (tests/workload_gen.hpp) so the bench measures the
    // exact streams the tests pin.
    const auto recs = dla::testkit::make_records(2026 + records, records);
    logm::FragmentStore indexed = dla::testkit::make_store(recs);
    logm::FragmentStore scan =
        dla::testkit::make_store(recs, /*indexed=*/false);
    const auto [t_lo, t_hi] = dla::testkit::time_quantiles(recs);

    using Criterion = dla::testkit::ScalingCriterion;
    const std::vector<Criterion> suite = dla::testkit::scaling_suite(t_lo, t_hi);

    for (const Criterion& c : suite) {
      const audit::Expr expr = audit::parse(c.text, schema);

      const auto idx_hits = audit::eval_local_indexed(expr, indexed);
      const auto scan_hits = audit::eval_local_scan(expr, scan);
      const bool match = idx_hits == scan_hits;
      if (!match) ++mismatches;

      audit::reset_query_engine_counters();
      audit::eval_local_indexed(expr, indexed);
      const std::uint64_t idx_rows =
          audit::query_engine_counters().rows_scanned;
      audit::reset_query_engine_counters();
      audit::eval_local_scan(expr, scan);
      const std::uint64_t scan_rows =
          audit::query_engine_counters().rows_scanned;

      const double idx_ns = measure_ns(
          [&] { sink += audit::eval_local_indexed(expr, indexed).size(); },
          min_ms);
      const double scan_ns = measure_ns(
          [&] { sink += audit::eval_local_scan(expr, scan).size(); }, min_ms);
      const double speedup = idx_ns > 0.0 ? scan_ns / idx_ns : 0.0;

      std::cout << std::left << std::setw(44) << c.text << std::right
                << std::setw(8) << records << std::setw(7) << idx_hits.size()
                << std::setw(12) << std::fixed << std::setprecision(0)
                << scan_ns << std::setw(12) << idx_ns << std::setw(8)
                << std::setprecision(1) << speedup << "x" << std::setw(10)
                << idx_rows << std::setw(7) << (match ? "yes" : "NO")
                << "\n";

      for (int engine = 0; engine < 2; ++engine) {
        if (!first_entry) json << ",\n";
        first_entry = false;
        json << "  {\"criterion\": \"" << c.text << "\", \"kind\": \""
             << c.kind << "\", \"records\": " << records
             << ", \"engine\": \"" << (engine == 0 ? "indexed" : "scan")
             << "\", \"ns\": " << std::fixed << std::setprecision(1)
             << (engine == 0 ? idx_ns : scan_ns)
             << ", \"rows_scanned\": " << (engine == 0 ? idx_rows : scan_rows)
             << ", \"hits\": " << idx_hits.size() << ", \"match\": "
             << (match ? "true" : "false");
        if (engine == 0) {
          json << ", \"speedup\": " << std::setprecision(2) << speedup;
        }
        json << "}";
      }
    }
    std::cout << "\n";
  }
  std::cout << "store-scaling section done (sink=" << sink << ")\n\n";
  return mismatches;
}

// Storage-backend tier: the same query suite against the full engines —
// all-in-memory vs memory-mapped segments (docs/STORAGE.md) — at record
// counts past what the mirror-store section runs. Records stream through in
// chunks so the generator never holds the whole log; the segment backend is
// measured for ingest rate, post-ingest RSS and cold-open (reopen +
// validate) time, and every criterion must answer bit-identically across
// backends. Appends one JSON entry per backend to BENCH_query.json.
int run_backend_tier(std::size_t records, std::ostringstream& json_out) {
  namespace fs = std::filesystem;
  const logm::Schema schema = logm::paper_schema();
  const std::size_t chunk = std::min<std::size_t>(records, 65536);
  // Fixed-bound criteria (no workload quantiles needed): equality, range,
  // conjunction, IN-fan, disjunction, and the non-indexable fallback that
  // decodes every row.
  const std::vector<std::string> suite = {
      "id = 'U3'",
      "protocl = 'TCP'",
      "C2 > 900.0",
      "id = 'U3' AND C2 > 500.0",
      "id IN ('U1', 'U3', 'U5')",
      "id = 'U3' OR C2 > 990.0",
      "C1 < C2",
  };

  struct Run {
    double ingest_ms = 0.0;
    double rss_kb = 0.0;
    double cold_open_ms = 0.0;
    double query_ms_total = 0.0;
    std::vector<std::size_t> hits;
    std::vector<std::uint64_t> digests;
  };

  auto ingest = [&](logm::StorageEngine& eng) {
    crypto::ChaCha20Rng rng(4242);
    logm::Glsn next = 0x139aef78;
    std::size_t remaining = records;
    while (remaining > 0) {
      logm::WorkloadSpec spec;
      spec.records = std::min(chunk, remaining);
      auto recs = logm::generate_workload(spec, rng, next);
      next += recs.size();
      remaining -= recs.size();
      for (auto& rec : recs) {
        eng.put(logm::Fragment{rec.glsn, std::move(rec.attrs)});
      }
    }
  };
  auto fnv = [](const std::vector<logm::Glsn>& glsns) {
    std::uint64_t h = 1469598103934665603ull;
    for (logm::Glsn g : glsns) {
      h ^= g;
      h *= 1099511628211ull;
    }
    return h;
  };
  auto run_queries = [&](const logm::StorageEngine& eng, Run& run) {
    for (const std::string& text : suite) {
      const audit::Expr expr = audit::parse(text, schema);
      auto t0 = std::chrono::steady_clock::now();
      const auto got = audit::eval_engine_indexed(expr, eng);
      auto t1 = std::chrono::steady_clock::now();
      run.query_ms_total +=
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      run.hits.push_back(got.size());
      run.digests.push_back(fnv(got));
    }
  };

  // Segment backend first so the memory backend's retained heap cannot
  // distort the segment run's RSS delta.
  const fs::path dir =
      fs::temp_directory_path() /
      ("dla_bench_backend_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  Run seg_run;
  {
    logm::SegmentEngine::Options opts;
    opts.memtable_max_records = 65536;
    opts.sync_mode = logm::SegmentEngine::SyncMode::OnSeal;
    const std::size_t rss0 = dla::testkit::read_rss_kb();
    auto t0 = std::chrono::steady_clock::now();
    {
      logm::SegmentEngine eng(dir.string(), opts);
      ingest(eng);
      auto t1 = std::chrono::steady_clock::now();
      seg_run.ingest_ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      const std::size_t rss1 = dla::testkit::read_rss_kb();
      seg_run.rss_kb = rss1 > rss0 ? static_cast<double>(rss1 - rss0) : 0.0;
      run_queries(eng, seg_run);
    }
    auto t2 = std::chrono::steady_clock::now();
    logm::SegmentEngine reopened(dir.string(), opts);
    auto t3 = std::chrono::steady_clock::now();
    seg_run.cold_open_ms =
        std::chrono::duration<double, std::milli>(t3 - t2).count();
    if (reopened.size() != records) {
      std::cerr << "FATAL: segment backend lost rows across reopen: "
                << reopened.size() << " != " << records << "\n";
      return 1;
    }
  }
  fs::remove_all(dir);

  Run mem_run;
  {
    logm::MemoryEngine eng;
    const std::size_t rss0 = dla::testkit::read_rss_kb();
    auto t0 = std::chrono::steady_clock::now();
    ingest(eng);
    auto t1 = std::chrono::steady_clock::now();
    mem_run.ingest_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    const std::size_t rss1 = dla::testkit::read_rss_kb();
    mem_run.rss_kb = rss1 > rss0 ? static_cast<double>(rss1 - rss0) : 0.0;
    run_queries(eng, mem_run);
  }

  const bool match = seg_run.digests == mem_run.digests;
  std::cout << "storage backend tier — " << records << " records\n\n";
  std::cout << std::left << std::setw(10) << "backend" << std::right
            << std::setw(12) << "ingest_ms" << std::setw(12) << "rss_kb"
            << std::setw(14) << "cold_open_ms" << std::setw(12) << "query_ms"
            << std::setw(7) << "match" << "\n";
  for (int b = 0; b < 2; ++b) {
    const Run& run = b == 0 ? mem_run : seg_run;
    std::cout << std::left << std::setw(10)
              << (b == 0 ? "memory" : "segment") << std::right
              << std::setw(12) << std::fixed << std::setprecision(1)
              << run.ingest_ms << std::setw(12) << std::setprecision(0)
              << run.rss_kb << std::setw(14) << std::setprecision(1)
              << run.cold_open_ms << std::setw(12) << run.query_ms_total
              << std::setw(7) << (match ? "yes" : "NO") << "\n";
    json_out << ",\n  {\"section\": \"backend\", \"backend\": \""
             << (b == 0 ? "memory" : "segment")
             << "\", \"records\": " << records << ", \"ingest_ms\": "
             << std::fixed << std::setprecision(1) << run.ingest_ms
             << ", \"rss_kb\": " << std::setprecision(0) << run.rss_kb
             << ", \"cold_open_ms\": " << std::setprecision(2)
             << run.cold_open_ms << ", \"query_ms\": " << run.query_ms_total
             << ", \"match\": " << (match ? "true" : "false") << "}";
  }
  std::cout << "\n";

  if (!match) {
    std::cerr << "FATAL: backends diverged on the query suite\n";
    return 1;
  }
  // The bounded-RSS contract only means anything once the log dwarfs the
  // memtable: gate at the large tier, report below it.
  if (records >= 1000000 && mem_run.rss_kb > 0.0 &&
      seg_run.rss_kb > 0.25 * mem_run.rss_kb) {
    std::cerr << "FATAL: segment backend RSS " << seg_run.rss_kb
              << " KiB exceeds 25% of in-memory " << mem_run.rss_kb
              << " KiB\n";
    return 1;
  }
  return 0;
}

}  // namespace

int run_cluster_sections() {
  constexpr std::size_t kRecords = 300;
  crypto::ChaCha20Rng rng(2026);
  logm::WorkloadSpec wspec;
  wspec.records = kRecords;
  auto records = logm::generate_workload(wspec, rng);

  // DLA cluster ingestion.
  audit::Cluster cluster(audit::Cluster::Options{
      logm::paper_schema(), 4, 1, logm::paper_partition(), /*seed=*/11,
      /*auditor_users=*/true});
  std::map<logm::Glsn, logm::Glsn> original_to_assigned;
  {
    std::size_t i = 0;
    for (const auto& rec : records) {
      logm::Glsn original = rec.glsn;
      cluster.user(0).log_record(cluster.sim(), rec.attrs,
                                 [&, original](std::optional<logm::Glsn> g) {
                                   if (g) original_to_assigned[original] = *g;
                                 });
      ++i;
    }
  }
  cluster.run();

  // Centralized baseline ingestion (full records, one trusted repository).
  baseline::CentralizedAuditor central(logm::paper_schema());
  for (const auto& rec : records) {
    logm::LogRecord assigned = rec;
    assigned.glsn = original_to_assigned.at(rec.glsn);
    central.log(assigned);
  }

  const char* suite[] = {
      "id = 'U3'",                                   // local, single node
      "id = 'U3' AND C2 > 500.0",                    // local conjunction
      "id = 'U3' AND protocl = 'TCP'",               // 2-node conjunction
      "Time > 1021234500 AND id = 'U1' AND C1 < 50", // 3-node conjunction
      "id = 'U2' OR protocl = 'UDP'",                // cross disjunction
      "C1 < C2",                                     // blind-TTP join
      "C1 < C2 AND Tid = 'T7'",                      // join + local
      "NOT (protocl = 'UDP' OR C1 >= 50)",           // normalization path
  };

  std::cout << "E6 — confidential query processing: DLA cluster vs "
               "centralized auditor ("
            << kRecords << " records)\n\n";
  std::cout << std::left << std::setw(46) << "criterion" << std::right
            << std::setw(6) << "hits" << std::setw(10) << "dla_ms"
            << std::setw(9) << "msgs" << std::setw(10) << "kbytes"
            << std::setw(9) << "cent_ms" << std::setw(8) << "C_aud"
            << std::setw(8) << "match" << "\n";

  for (const char* criterion : suite) {
    // DLA run.
    cluster.sim().reset_stats();
    std::optional<audit::QueryOutcome> outcome;
    auto t0 = std::chrono::steady_clock::now();
    cluster.user(0).query(cluster.sim(), criterion,
                          [&](audit::QueryOutcome o) { outcome = std::move(o); });
    cluster.run();
    auto t1 = std::chrono::steady_clock::now();
    double dla_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();

    // Centralized run.
    auto t2 = std::chrono::steady_clock::now();
    auto central_hits = central.query(criterion);
    auto t3 = std::chrono::steady_clock::now();
    double cent_ms =
        std::chrono::duration<double, std::milli>(t3 - t2).count();

    auto sqs = audit::normalize(criterion, cluster.config()->schema,
                                cluster.config()->partition);
    bool match = outcome && outcome->ok && outcome->glsns == central_hits;

    std::cout << std::left << std::setw(46) << criterion << std::right
              << std::setw(6) << (outcome ? outcome->glsns.size() : 0)
              << std::setw(10) << std::fixed << std::setprecision(2) << dla_ms
              << std::setw(9) << cluster.sim().stats().messages_sent
              << std::setw(10) << std::setprecision(1)
              << cluster.sim().stats().bytes_sent / 1024.0 << std::setw(9)
              << std::setprecision(3) << cent_ms << std::setw(8)
              << std::setprecision(2) << audit::auditing_confidentiality(sqs)
              << std::setw(8) << (match ? "yes" : "NO") << "\n";
  }

  std::cout << "\ncentralized auditor confidentiality: C_store = 0 (full "
               "records at one party), C_auditing = 0 by construction.\n";

  // Ablation: threshold report certification on top of the same query —
  // the cost of a majority co-signature (2 extra rounds + Schnorr algebra).
  {
    audit::Cluster certified(audit::Cluster::Options{
        logm::paper_schema(), 4, 1, logm::paper_partition(), /*seed=*/11,
        /*auditor_users=*/true, /*certify_reports=*/true});
    for (const auto& rec : records) {
      certified.user(0).log_record(certified.sim(), rec.attrs,
                                   [](std::optional<logm::Glsn>) {});
    }
    certified.run();
    const char* q = "id = 'U3' AND protocl = 'TCP'";
    certified.sim().reset_stats();
    std::optional<audit::QueryOutcome> outcome;
    auto t0 = std::chrono::steady_clock::now();
    certified.user(0).query(certified.sim(), q,
                            [&](audit::QueryOutcome o) { outcome = std::move(o); });
    certified.run();
    auto t1 = std::chrono::steady_clock::now();
    std::cout << "\nablation — same query with 3-of-4 certification: "
              << std::fixed << std::setprecision(2)
              << std::chrono::duration<double, std::milli>(t1 - t0).count()
              << " ms, " << certified.sim().stats().messages_sent
              << " msgs, certified="
              << (outcome && outcome->certified ? "yes" : "no") << "\n";
  }

  // Aggregate queries (the abstract's headline capability): the auditor
  // learns one number; per-record values never leave the attribute owner.
  std::cout << "\nconfidential aggregates over the same workload:\n";
  struct AggCase {
    const char* criterion;
    audit::AggOp op;
    const char* attr;
  } agg_suite[] = {
      {"protocl = 'UDP'", audit::AggOp::Count, ""},
      {"protocl = 'UDP'", audit::AggOp::Sum, "C2"},
      {"id = 'U1' AND protocl = 'TCP'", audit::AggOp::Avg, "C2"},
      {"Time > 1021234500", audit::AggOp::Max, "C1"},
  };
  for (const auto& c : agg_suite) {
    cluster.sim().reset_stats();
    std::optional<audit::AggregateOutcome> agg;
    auto t0 = std::chrono::steady_clock::now();
    cluster.user(0).aggregate_query(
        cluster.sim(), c.criterion, c.op, c.attr,
        [&](audit::AggregateOutcome o) { agg = std::move(o); });
    cluster.run();
    auto t1 = std::chrono::steady_clock::now();
    double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    std::cout << "  " << audit::to_string(c.op) << "(" << c.attr << ") WHERE "
              << std::left << std::setw(32) << c.criterion << std::right;
    if (agg && agg->ok) {
      std::cout << " = " << std::setprecision(4) << agg->value << "  ("
                << agg->count << " records, " << std::setprecision(2) << ms
                << " ms, " << cluster.sim().stats().messages_sent
                << " msgs)\n";
    } else {
      std::cout << " error: " << (agg ? agg->error : "no reply") << "\n";
    }
  }
  return 0;
}

// `--smoke` runs the store-scaling section at its tier1-safe size plus a
// small backend tier (the `bench`-labelled ctest entry); the full run adds
// a 100k-record backend tier, the cluster-vs-centralized comparison,
// certification ablation and aggregate suite. `--large` raises the backend
// tier to 3M records (the bounded-RSS demonstration; gates segment RSS at
// 25% of the in-memory backend); `--records N` sets it explicitly.
int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_query.json";
  std::size_t backend_records = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--large") == 0) backend_records = 3000000;
    if (std::strcmp(argv[i], "--records") == 0 && i + 1 < argc) {
      backend_records = static_cast<std::size_t>(std::stoull(argv[++i]));
    }
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  if (backend_records == 0) backend_records = smoke ? 2000 : 100000;

  std::ostringstream json;
  json << "[\n";
  const int mismatches = run_store_scaling(smoke, json);
  if (mismatches != 0) {
    std::cerr << "FATAL: " << mismatches
              << " criteria diverged between indexed and scan engines\n";
    return 1;
  }
  const int backend_rc = run_backend_tier(backend_records, json);
  json << "\n]\n";
  std::ofstream out(json_path);
  out << json.str();
  std::cout << "wrote " << json_path << "\n";
  if (backend_rc != 0) return backend_rc;
  if (smoke) return 0;
  return run_cluster_sections();
}
