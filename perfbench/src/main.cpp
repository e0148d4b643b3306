// dla_perfbench — wall-clock benchmark of the DLA service.
//
//   dla_perfbench --workload <ingest_durable|audit_read> --seed <n>
//                 --seconds <s> --trace <0|1> --work-dir <dir>
//                 [--scale <x>] [--tamper]
//
// Repeats measured rounds (fresh cluster, setup, op phase) of one seeded
// workload while another round fits in --seconds (at least two), checks
// every result against the plaintext oracle and every round's counts
// against the first round's, and prints one JSON object as the last line
// of stdout. --trace 0 reports the end-to-end metrics, timed by the fastest
// replay of each op and of each stretch of setup and op phase; --trace 1
// alternates untraced and traced rounds and reports the per-layer metrics
// (METRICS.md lists both). Exits 1 on any wrong result or count drift, 2 on
// bad arguments.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "crypto/modexp_engine.hpp"
#include "layers.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
  double scale = 1.0;
  bool tamper = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tamper") {
      a.tamper = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--work-dir") {
      a.work_dir = v;
    } else if (flag == "--scale") {
      a.scale = std::stod(v);
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

// Nearest-rank percentile; a tail (q > 0.5) is capped at the highest rank
// that still leaves >= 10 samples beyond it.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  if (q > 0.5 && n > 20) rank = std::min(rank, n - 10);
  rank = std::clamp<std::size_t>(rank, 1, n);
  return v[rank - 1];
}

struct Metric {
  double value;
  const char* unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::map<std::string, Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  bool first = true;
  for (const auto& [name, m] : metrics) {
    // JSON has no infinity: a latency that failed ops pushed to +inf prints
    // as a huge finite number.
    const double v = std::isfinite(m.value) ? m.value : 1e300;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), v, m.unit);
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// Names every count of round `round` that differs from the first round's,
// over the counts of both rounds; a count one round lacks is 0.
void check_drift(const std::map<std::string, std::uint64_t>& first,
                 const std::map<std::string, std::uint64_t>& now,
                 std::size_t round, std::vector<std::string>& out) {
  auto get = [](const std::map<std::string, std::uint64_t>& m,
                const std::string& name) -> std::uint64_t {
    auto it = m.find(name);
    return it == m.end() ? 0 : it->second;
  };
  std::set<std::string> names;
  for (const auto& [name, unused] : first) names.insert(name);
  for (const auto& [name, unused] : now) names.insert(name);
  for (const std::string& name : names) {
    const std::uint64_t a = get(first, name), b = get(now, name);
    if (a != b) {
      out.push_back(name + ": round 1 = " + std::to_string(a) + ", round " +
                    std::to_string(round) + " = " + std::to_string(b));
    }
  }
}

// The fastest of the untraced rounds' replays. Every round replays the same
// seeded setup and op stream on the deterministic simulator, so op i, and
// the stretch between two clock marks, do the same work in every round and
// only the machine's speed differs: the fastest replay is the work's cost,
// and a burst of noise from other tenants that slowed some rounds, or a
// stretch of some of them, does not move it. A failed replay makes the op
// +inf for good.
struct Fastest {
  std::vector<double> op_ms;  // parallel to Inputs::ops
  // Fastest replay of each stretch between two marks, ns.
  std::vector<std::int64_t> setup_ns, wall_ns, cpu_ns;

  static void fold(std::vector<std::int64_t>& best,
                   const std::vector<std::int64_t>& marks) {
    if (best.empty()) {
      best.assign(marks.size() - 1, std::numeric_limits<std::int64_t>::max());
    }
    for (std::size_t j = 0; j < best.size(); ++j) {
      best[j] = std::min(best[j], marks[j + 1] - marks[j]);
    }
  }

  static double sum_s(const std::vector<std::int64_t>& ns) {
    std::int64_t total = 0;
    for (std::int64_t v : ns) total += v;
    return static_cast<double>(total) * 1e-9;
  }

  void add(const RoundResult& r) {
    fold(setup_ns, r.setup_mark_ns);
    fold(wall_ns, r.mark_wall_ns);
    fold(cpu_ns, r.mark_cpu_ns);
    if (op_ms.empty()) op_ms.assign(r.records.size(), kInf);
    for (std::size_t i = 0; i < r.records.size(); ++i) {
      const OpRecord& rec = r.records[i];
      const double ms =
          static_cast<double>(rec.wall_done_ns - rec.wall_issued_ns) * 1e-6;
      if (!(rec.done && rec.ok && !rec.wrong)) {
        op_ms[i] = -kInf;  // marks a failure; reported as +inf
      } else if (op_ms[i] != -kInf) {
        op_ms[i] = std::min(op_ms[i], ms);
      }
    }
  }
};

// End-to-end metrics from the fastest replays. Latencies are wall clock, ms.
std::map<std::string, Metric> end_to_end(const Fastest& f, const Inputs& in) {
  std::vector<std::vector<double>> lat(kOpKinds);
  for (std::size_t i = 0; i < f.op_ms.size(); ++i) {
    lat[static_cast<std::size_t>(in.ops[i].kind)].push_back(
        f.op_ms[i] == -kInf ? kInf : f.op_ms[i]);
  }
  auto at = [&lat](OpKind k, double q) {
    return percentile(lat[static_cast<std::size_t>(k)], q);
  };
  const double ops = static_cast<double>(f.op_ms.size());
  return {
      {"setup_s", {Fastest::sum_s(f.setup_ns), "s"}},
      {"throughput_ops_s", {ops / Fastest::sum_s(f.wall_ns), "1/s"}},
      {"write_p50_ms", {at(OpKind::Write, 0.50), "ms"}},
      {"write_p95_ms", {at(OpKind::Write, 0.95), "ms"}},
      {"delete_p50_ms", {at(OpKind::Delete, 0.50), "ms"}},
      {"integrity_p50_ms", {at(OpKind::Integrity, 0.50), "ms"}},
      {"query_local_p50_ms", {at(OpKind::QueryLocal, 0.50), "ms"}},
      {"query_local_p95_ms", {at(OpKind::QueryLocal, 0.95), "ms"}},
      {"query_cross_p50_ms", {at(OpKind::QueryCross, 0.50), "ms"}},
      {"query_cross_p90_ms", {at(OpKind::QueryCross, 0.90), "ms"}},
      {"aggregate_p50_ms", {at(OpKind::Aggregate, 0.50), "ms"}},
      {"cpu_ms_per_op", {Fastest::sum_s(f.cpu_ns) * 1e3 / ops, "ms/op"}},
  };
}

// Message classes reported per layer (every classify_message class the
// workloads exercise) plus simulator timers.
const char* const kClasses[] = {"sequencing",    "logging",  "integrity",
                                "query",         "set-ring", "certification",
                                "timer"};

std::map<std::string, Metric> per_layer(
    const std::vector<RoundResult>& untraced,
    const std::vector<RoundResult>& traced, const Inputs& in,
    const std::map<std::string, double>& timed) {
  std::map<std::string, Metric> m;
  const RoundResult& r = traced.front();
  const auto count = [&r](const std::string& name) {
    auto it = r.counts.find(name);
    return it == r.counts.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double ops = static_cast<double>(in.ops.size());
  const double writes = count("ops.write");
  const double queries =
      count("ops.query_local") + count("ops.query_cross") + count("ops.aggregate");
  auto per = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };

  // Traced wall time by message class; rounds pooled.
  std::map<std::string, double> class_ms;
  double harness_ms = 0.0, traced_s = 0.0, untraced_s = 0.0, classes_ms = 0.0;
  for (const RoundResult& t : traced) {
    for (const auto& [name, ns] : t.class_ns) {
      class_ms[name] += static_cast<double>(ns) * 1e-6;
      classes_ms += static_cast<double>(ns) * 1e-6;
    }
    harness_ms += static_cast<double>(t.harness_ns) * 1e-6;
    traced_s += t.phase_s;
  }
  for (const RoundResult& u : untraced) untraced_s += u.phase_s;
  const double traced_ops = ops * static_cast<double>(traced.size());
  for (const char* c : kClasses) {
    m[std::string("audit.") + c + ".self_ms_per_op"] = {
        per(class_ms[c], traced_ops), "ms/op"};
    m[std::string("audit.") + c + ".msgs_per_op"] = {
        per(count(std::string("msgs.") + c), ops), "msg/op"};
  }
  m["audit.harness.self_ms_per_op"] = {per(harness_ms, traced_ops), "ms/op"};
  const double share = per(classes_ms, traced_s * 1e3);
  if (share < 0.9 || share > 1.1) {
    std::fprintf(stderr,
                 "perfbench: WARNING per-class self times cover %.1f%% of the "
                 "traced op phase\n",
                 share * 100.0);
  }
  m["trace.class_self_share"] = {share, "ratio"};
  // Mean traced vs mean untraced op phase of the same seeded round.
  const double traced_mean = traced_s / static_cast<double>(traced.size());
  const double untraced_mean = untraced_s / static_cast<double>(untraced.size());
  m["trace.overhead_pct"] = {(traced_mean / untraced_mean - 1.0) * 100.0, "%"};

  std::vector<std::vector<double>> sim_us(kOpKinds);
  for (std::size_t i = 0; i < r.records.size(); ++i) {
    const OpRecord& rec = r.records[i];
    sim_us[static_cast<std::size_t>(in.ops[i].kind)].push_back(
        static_cast<double>(rec.sim_done - rec.sim_issued));
  }
  for (std::size_t k = 0; k < kOpKinds; ++k) {
    m[std::string("audit.sim_latency_us.") + op_name(static_cast<OpKind>(k))] = {
        percentile(sim_us[k], 0.5), "us"};
  }
  m["audit.cache.hit_ratio"] = {
      per(count("cache.hits"), count("cache.hits") + count("cache.misses")),
      "ratio"};
  m["audit.cache.invalidations_per_write"] = {
      per(count("cache.invalidations"), writes), "1/write"};
  m["logm.index_hits_per_query"] = {per(count("logm.index_hits"), queries),
                                    "1/query"};
  m["logm.rows_scanned_per_query"] = {per(count("logm.rows_scanned"), queries),
                                      "rows/query"};
  m["logm.fallbacks_per_query"] = {
      per(count("logm.planner_fallbacks"), queries), "1/query"};
  m["logm.segment_rows_decoded_per_query"] = {
      per(count("logm.segment_rows_decoded"), queries), "rows/query"};
  m["logm.zone_map_skips_per_query"] = {
      per(count("logm.zone_map_skips"), queries), "1/query"};
  m["logm.seals_per_kwrite"] = {per(count("logm.seals") * 1e3, writes),
                                "1/kwrite"};
  m["logm.compactions_per_kwrite"] = {
      per(count("logm.compactions") * 1e3, writes), "1/kwrite"};
  m["logm.write_amp"] = {per(r.storage_written_bytes, r.user_written_bytes),
                         "x"};
  m["logm.space_amp"] = {per(r.storage_live_bytes, r.user_live_bytes), "x"};
  m["crypto.modexp_per_op"] = {per(count("crypto.modexp"), ops), "1/op"};
  m["crypto.modexp_per_batch"] = {
      per(count("crypto.modexp"), count("crypto.modexp_batches")), "1/batch"};
  m["net.msgs_per_op"] = {per(count("net.messages"), ops), "msg/op"};
  m["net.bytes_per_op"] = {per(count("net.bytes"), ops), "B/op"};
  for (const auto& [name, value] : timed) {
    m[name] = {value, name.find("_ns") != std::string::npos ? "ns" : "us"};
  }
  return m;
}

int run(const Args& args) {
  const WorkloadSpec spec = workload_spec(args.workload, args.scale);
  const Inputs inputs = make_inputs(spec, args.seed);
  // Deterministic in-process clusters: never the TCP relay.
  unsetenv("DLA_TRANSPORT");
  // One modexp worker: a run then needs one free core, not all of them,
  // which keeps it steady on a shared machine.
  dla::crypto::ModExpEngine::set_batch_threads(1);
  std::fprintf(stderr,
               "perfbench: workload=%s seed=%llu sessions=%zu preload=%zu "
               "ops/round=%zu nproc=%u modexp_threads=%zu build=%s\n",
               spec.name.c_str(), static_cast<unsigned long long>(args.seed),
               spec.sessions, spec.preload, spec.ops,
               std::thread::hardware_concurrency(),
               dla::crypto::ModExpEngine::batch_threads(), PERFBENCH_BUILD_TYPE);

  const std::string storage = args.work_dir + "/store-" + spec.name + "-" +
                              std::to_string(getpid());
  Tracer tracer;
  // Op records are dropped after each round (only the first traced round's
  // are kept, for the layer calls), so memory does not grow with rounds.
  std::vector<RoundResult> untraced, traced;
  Fastest fastest;
  std::map<std::string, std::uint64_t> first_counts;
  std::vector<std::string> findings, drifted;
  std::size_t rounds = 0, attempted = 0, failed = 0;
  const std::int64_t start = now_ns();
  auto elapsed = [start] { return static_cast<double>(now_ns() - start) * 1e-9; };
  double last_round_s = 0.0;
  // Run whole rounds while another one still fits in --seconds; the drift
  // check needs two.
  while (rounds < 2 || elapsed() + last_round_s <= args.seconds) {
    const double t = elapsed();
    RoundOptions opt;
    opt.storage_dir = storage;
    opt.probes = rounds == 0;
    opt.tamper = args.tamper && rounds == 0;
    const bool trace_this = args.trace && untraced.size() > traced.size();
    if (trace_this) opt.tracer = &tracer;
    RoundResult r = run_round(spec, inputs, opt);
    ++rounds;
    last_round_s = elapsed() - t;
    std::fprintf(stderr,
                 "perfbench: round %zu%s setup=%.3fs phase=%.3fs cpu=%.3fs "
                 "rss=%.1fMB\n",
                 rounds, trace_this ? " (traced)" : "", r.setup_s, r.phase_s,
                 r.cpu_s, r.peak_rss_mb);
    attempted += r.records.size();
    for (const OpRecord& rec : r.records) {
      if (!rec.done || !rec.ok || rec.wrong) ++failed;
    }
    findings.insert(findings.end(), r.violations.begin(), r.violations.end());
    if (rounds == 1) {
      first_counts = r.counts;
    } else {
      check_drift(first_counts, r.counts, rounds, drifted);
    }
    if (!trace_this) fastest.add(r);
    if (!trace_this || !traced.empty()) r.records = {};
    (trace_this ? traced : untraced).push_back(std::move(r));
  }

  for (std::size_t i = 0; i < findings.size() && i < 20; ++i) {
    std::fprintf(stderr, "perfbench: WRONG %s\n", findings[i].c_str());
  }
  for (const std::string& d : drifted) {
    std::fprintf(stderr, "perfbench: COUNT DRIFT %s\n", d.c_str());
  }
  const bool correct = findings.empty() && drifted.empty();
  std::string per_round;
  for (const auto& [name, n] : first_counts) {
    if (name.rfind("ops.", 0) == 0) {
      per_round += " " + name.substr(4) + "=" + std::to_string(n);
    }
  }
  std::fprintf(stderr, "perfbench: latency samples per round:%s\n",
               per_round.c_str());
  std::fprintf(stderr,
               "perfbench: rounds=%zu (traced %zu) attempted=%zu failed=%zu "
               "wrong=%zu drift=%zu elapsed=%.1fs\n",
               rounds, traced.size(), attempted, failed, findings.size(),
               drifted.size(), elapsed());

  std::map<std::string, Metric> metrics;
  if (args.trace) {
    const std::map<std::string, double> timed = time_layers(
        inputs, live_records(inputs, traced.front()), traced.front().frames,
        tracer);
    metrics = per_layer(untraced, traced, inputs, timed);
    metrics["oracle.failed_pct"] = {
        100.0 * static_cast<double>(failed) / static_cast<double>(attempted), "%"};
    const std::string path = args.work_dir + "/trace-" + spec.name + "-seed" +
                             std::to_string(args.seed) + ".csv";
    if (tracer.write_csv(path)) {
      std::fprintf(stderr, "perfbench: %zu spans written to %s\n",
                   tracer.spans().size(), path.c_str());
    }
  } else {
    metrics = end_to_end(fastest, inputs);
    // The first round's peak: the process's RSS grows by about 1 MB with
    // each ingest_durable round, so any other round's would grow with the
    // number of rounds the machine's speed allowed.
    metrics["peak_rss_mb"] = {untraced.front().peak_rss_mb, "MB"};
  }
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dla_perfbench: %s\n", e.what());
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dla_perfbench: failed: %s\n", e.what());
    return 1;
  }
}
