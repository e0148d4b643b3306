// dla_traffic: regression-gated scenario matrix over audit::TrafficHarness.
//
// Runs every scenario as a fault-free / seeded-chaos pair on one or both
// transport backends, asserts the per-run invariants (I1-I5), the Eq. 10-13
// confidentiality metrics and the pair agreement, gates fault-free latency,
// confidentiality and per-class message counts against
// bench/traffic_baseline.txt, and writes
// BENCH_traffic.json. A fault-injection canary (debug_rewind_glsn mid-run)
// must be *caught* by the harness or the driver fails — proving the checks
// have teeth. See docs/TRAFFIC.md.
//
// Usage:
//   dla_traffic [--smoke] [--json=PATH] [--baseline=PATH]
//               [--write-baseline] [--transport=sim,tcp] [--scenario=NAME]
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "audit/traffic_harness.hpp"
#include "workload_gen.hpp"

namespace {

using dla::audit::AggOp;
using dla::audit::ArrivalProcess;
using dla::audit::Cluster;
using dla::audit::OpClass;
using dla::audit::PairReport;
using dla::audit::RunOptions;
using dla::audit::RunResult;
using dla::audit::ScenarioSpec;

// ------------------------------------------------------ scenario matrix --
// Benign chaos tier: duplication, jitter and reordering but no loss — every
// op must still complete and the pair must agree on every certified result.
dla::net::ChaosConfig benign_chaos() {
  dla::net::ChaosConfig c;
  c.dup_prob = 0.05;
  c.jitter_prob = 0.3;
  c.jitter_max = 40;
  c.reorder_prob = 0.2;
  return c;
}

// Root directory for durable-storage scenarios; one tree per driver process,
// removed on exit. run_scenario wipes the per-leg subdir itself.
const std::string& storage_root() {
  static const std::string root =
      (std::filesystem::temp_directory_path() /
       ("dla_traffic_storage_" + std::to_string(::getpid())))
          .string();
  return root;
}

std::vector<ScenarioSpec> scenario_matrix(bool smoke) {
  std::vector<ScenarioSpec> out;
  const std::vector<std::string>& criteria = dla::testkit::cluster_criteria();
  const std::vector<dla::audit::AggregateSpec> aggregates = {
      {"protocl = 'TCP'", AggOp::Count, ""},
      {"id = 'U1'", AggOp::Sum, "C1"},
      {"C2 > 500.0", AggOp::Avg, "C2"},
  };

  if (smoke) {
    ScenarioSpec s;
    s.name = "steady_smoke";
    s.seed = 11;
    s.preload_records = 10;
    s.ops = 30;
    s.mean_gap_us = 6000;
    s.mix = {3, 2, 1, 0.5, 0.25};
    s.criteria = criteria;
    s.aggregates = aggregates;
    s.chaos = benign_chaos();
    out.push_back(std::move(s));
    return out;
  }

  {  // balanced mix, uniform arrivals: the workhorse regression scenario
    ScenarioSpec s;
    s.name = "steady_mixed";
    s.seed = 101;
    s.preload_records = 24;
    s.ops = 140;
    s.mean_gap_us = 4000;
    s.mix = {4, 3, 1, 1, 0.5};
    s.criteria = criteria;
    s.aggregates = aggregates;
    s.chaos = benign_chaos();
    out.push_back(std::move(s));
  }
  {  // Poisson batches against a bandwidth-capped link: bursts must queue,
     // and the open-loop latency must include that queueing delay
    ScenarioSpec s;
    s.name = "bursty_poisson";
    s.seed = 202;
    s.preload_records = 16;
    s.ops = 120;
    s.arrivals = ArrivalProcess::PoissonBatch;
    s.mean_gap_us = 3000;
    s.batch_max = 8;
    s.link_bytes_per_us = 4.0;
    s.mix = {3, 2, 1, 0, 0};
    s.criteria = criteria;
    s.aggregates = aggregates;
    s.chaos = benign_chaos();
    out.push_back(std::move(s));
  }
  {  // millions of Zipf-skewed identities + ticket churn, on/off bursts
    ScenarioSpec s;
    s.name = "identity_churn";
    s.seed = 303;
    s.preload_records = 12;
    s.ops = 150;
    s.arrivals = ArrivalProcess::OnOff;
    s.mean_gap_us = 2500;
    s.on_window_us = 30000;
    s.off_window_us = 50000;
    s.identities = 2'000'000;
    s.zipf_s = 1.1;
    s.reissue_every = 10;  // implies mix.del == 0 (see generate_ops)
    s.mix = {5, 3, 1, 0, 0.5};
    s.criteria = criteria;
    s.aggregates = aggregates;
    s.chaos = benign_chaos();
    out.push_back(std::move(s));
  }
  {  // lossy tier: real drops, crash/recover outages and one partition;
     // completion may dip but no completed result may be wrong
    ScenarioSpec s;
    s.name = "lossy_readmostly";
    s.seed = 404;
    s.preload_records = 20;
    s.ops = 120;
    s.mean_gap_us = 4000;
    s.mix = {2, 5, 1, 0.5, 0};
    s.criteria = criteria;
    s.aggregates = aggregates;
    s.chaos = benign_chaos();
    s.chaos.drop_prob = 0.04;
    s.chaos_outages = 2;
    s.chaos_partitions = 1;
    s.chaos_horizon_us = 400'000;
    s.chaos_window_us = 25'000;
    s.lossy = true;
    out.push_back(std::move(s));
  }
  {  // durable storage churn: every node on the mmap'd segment engine with
     // a tiny memtable, write/delete-heavy — seals and tiered compactions
     // fire mid-traffic while queries and integrity audits race them
    ScenarioSpec s;
    s.name = "durable_churn";
    s.seed = 606;
    s.preload_records = 24;
    s.ops = 140;
    s.mean_gap_us = 4000;
    s.mix = {5, 2, 0.5, 2, 0.5};
    s.criteria = criteria;
    s.aggregates = aggregates;
    s.chaos = benign_chaos();
    s.storage_dir = storage_root();
    s.storage_memtable_max = 16;
    s.storage_compaction_fanout = 2;
    out.push_back(std::move(s));
  }
  return out;
}

ScenarioSpec rewind_canary() {
  ScenarioSpec s;
  s.name = "rewind_canary";
  s.seed = 515;
  s.preload_records = 8;
  s.ops = 40;
  s.mean_gap_us = 5000;
  s.mix = {5, 2, 0, 0, 0};
  s.criteria = dla::testkit::cluster_criteria();
  s.inject_rewind = true;
  return s;
}

// ----------------------------------------------------------------- JSON --
std::string esc(const std::string& in) {
  std::string out;
  for (char c : in) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') { out += "\\n"; continue; }
    out += c;
  }
  return out;
}

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

void emit_run(std::ostream& os, const RunResult& r) {
  os << "    {\"scenario\": \"" << esc(r.scenario) << "\", \"transport\": \""
     << r.transport << "\", \"chaos\": " << (r.chaos ? "true" : "false")
     << ", \"chaos_seed\": " << r.chaos_seed
     << ", \"duration_us\": " << r.duration_us
     << ", \"completed_ops\": " << r.completed_ops
     << ", \"failed_ops\": " << r.failed_ops
     << ", \"skipped_ops\": " << r.skipped_ops
     << ", \"completion_rate\": " << fmt(r.completion_rate) << ",\n";
  os << "     \"latency_us\": {";
  bool first = true;
  for (const auto& [cls, st] : r.latency) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << dla::audit::to_string(cls) << "\": {\"count\": " << st.count
       << ", \"p50\": " << st.p50 << ", \"p95\": " << st.p95
       << ", \"p99\": " << st.p99 << ", \"p999\": " << st.p999
       << ", \"max\": " << st.max << "}";
  }
  os << "},\n";
  os << "     \"invariants_ok\": " << (r.invariants.ok() ? "true" : "false")
     << ", \"violations\": [";
  for (std::size_t i = 0; i < r.invariants.violations.size(); ++i) {
    if (i) os << ", ";
    os << "\"" << esc(r.invariants.violations[i]) << "\"";
  }
  os << "],\n";
  os << "     \"c_store\": " << fmt(r.c_store)
     << ", \"c_auditing\": " << fmt(r.c_auditing)
     << ", \"c_dla\": " << fmt(r.c_dla) << ",\n";
  os << "     \"wire_rejects\": {\"codec\": " << r.rejects.codec_rejects
     << ", \"trailing\": " << r.rejects.trailing_rejects
     << ", \"parse\": " << r.rejects.parse_rejects << "},\n";
  os << "     \"chaos_effects\": {\"dropped\": "
     << r.chaos_counters.chaos_drops
     << ", \"duplicated\": " << r.chaos_counters.duplicates_injected
     << ", \"jittered\": " << r.chaos_counters.jitter_events << "},\n";
  os << "     \"messages_sent\": " << r.messages_sent
     << ", \"bytes_sent\": " << r.bytes_sent << ",\n";
  os << "     \"messages_by_class\": {";
  first = true;
  for (const auto& [cls, n] : r.messages_by_class) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << esc(cls) << "\": " << n;
  }
  os << "}}";
}

// ------------------------------------------------------------ baselines --
// bench/traffic_baseline.txt: `<scenario>/<transport> <metric> <value>`
// per fault-free run; regenerate with --write-baseline after intentional
// performance or protocol changes.
using Baseline = std::map<std::string, double>;

Baseline load_baseline(const std::string& path, bool& found) {
  Baseline out;
  std::ifstream in(path);
  found = in.good();
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string scope, metric;
    double value = 0.0;
    if (fields >> scope >> metric >> value) out[scope + " " + metric] = value;
  }
  return out;
}

std::map<std::string, double> baseline_metrics(const RunResult& r) {
  std::map<std::string, double> m;
  for (const auto& [cls, st] : r.latency) {
    if (st.count == 0) continue;
    m[std::string(dla::audit::to_string(cls)) + "_p50"] =
        static_cast<double>(st.p50);
    m[std::string(dla::audit::to_string(cls)) + "_p95"] =
        static_cast<double>(st.p95);
    m[std::string(dla::audit::to_string(cls)) + "_p99"] =
        static_cast<double>(st.p99);
  }
  m["c_store"] = r.c_store;
  m["c_auditing"] = r.c_auditing;
  m["c_dla"] = r.c_dla;
  // Protocol shape: messages delivered per class. A message off the critical
  // path (a broadcast nobody waits for) is invisible to the latency gate.
  for (const auto& [cls, n] : r.messages_by_class) {
    m["msgs_" + cls] = static_cast<double>(n);
  }
  return m;
}

bool is_confidentiality(const std::string& metric) {
  return metric.rfind("c_", 0) == 0;
}

bool is_count(const std::string& metric) {
  return metric.rfind("msgs_", 0) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false, write_baseline = false;
  std::string json_path, baseline_path, only_scenario;
  std::string transports = "sim,tcp";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto val = [&arg](const char* flag) -> std::string {
      return arg.substr(std::string(flag).size());
    };
    if (arg == "--smoke") smoke = true;
    else if (arg == "--write-baseline") write_baseline = true;
    else if (arg.rfind("--json=", 0) == 0) json_path = val("--json=");
    else if (arg.rfind("--baseline=", 0) == 0) baseline_path = val("--baseline=");
    else if (arg.rfind("--transport=", 0) == 0) transports = val("--transport=");
    else if (arg.rfind("--scenario=", 0) == 0) only_scenario = val("--scenario=");
    else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 2;
    }
  }
  if (json_path.empty()) {
    json_path = smoke ? "BENCH_traffic_smoke.json" : "BENCH_traffic.json";
  }

  // Which backends to sweep. --smoke rides whatever DLA_TRANSPORT the test
  // run exported (so `DLA_TRANSPORT=tcp ctest -L tier1` re-runs the smoke
  // scenario over the real byte path); the full matrix pins the variable
  // per leg so it covers both backends in one invocation.
  std::vector<std::string> backends;
  if (smoke) {
    const char* env = std::getenv("DLA_TRANSPORT");
    backends.push_back(env != nullptr && std::string_view(env) != "sim"
                           ? "tcp"
                           : "sim");
  } else {
    std::stringstream ss(transports);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      if (!tok.empty()) backends.push_back(tok);
    }
  }

  bool found_baseline = false;
  Baseline baseline;
  if (!baseline_path.empty()) {
    baseline = load_baseline(baseline_path, found_baseline);
  }

  std::vector<std::string> failures;
  std::vector<RunResult> runs;
  struct PairRow {
    std::string scenario, transport;
    PairReport report;
  };
  std::vector<PairRow> pairs;
  Baseline new_baseline;

  for (const std::string& backend : backends) {
    if (!smoke) setenv("DLA_TRANSPORT", backend.c_str(), 1);
    const Cluster::TransportKind kind = backend == "tcp"
                                            ? Cluster::TransportKind::TcpRelay
                                            : Cluster::TransportKind::Sim;
    for (ScenarioSpec spec : scenario_matrix(smoke)) {
      if (!only_scenario.empty() && spec.name != only_scenario) continue;
      std::cerr << "[traffic] " << spec.name << " on " << backend << "\n";

      RunOptions fault_free;
      fault_free.transport = kind;
      RunOptions chaotic;
      chaotic.transport = kind;
      chaotic.chaos = true;
      chaotic.chaos_seed = spec.seed * 31 + 7;

      RunResult a = dla::audit::run_scenario(spec, fault_free);
      RunResult b = dla::audit::run_scenario(spec, chaotic);
      PairReport pair = dla::audit::compare_runs(spec, a, b);

      const std::string scope = spec.name + "/" + backend;
      for (const RunResult* r : {&a, &b}) {
        if (!r->invariants.ok()) {
          failures.push_back(scope + (r->chaos ? " [chaos]" : "") +
                             " invariant violations:\n" +
                             r->invariants.summary());
        }
        if (!spec.lossy && (r->failed_ops != 0 || r->completion_rate < 1.0)) {
          failures.push_back(scope + (r->chaos ? " [chaos]" : "") + ": " +
                             std::to_string(r->failed_ops) +
                             " ops failed to complete in a non-lossy run");
        }
        if (!spec.lossy) {
          // Completed-but-refused ops (e.g. an authorization hole) must not
          // hide behind a 100% completion rate.
          std::size_t refused = 0;
          for (const auto& op : r->ops) {
            if (op.done && !op.ok && !op.skipped) ++refused;
          }
          if (refused != 0) {
            failures.push_back(scope + (r->chaos ? " [chaos]" : "") + ": " +
                               std::to_string(refused) +
                               " ops completed refused in a non-lossy run");
          }
        }
      }
      if (spec.lossy && a.completion_rate < 1.0) {
        failures.push_back(scope +
                           ": fault-free leg of a lossy pair lost ops");
      }
      if (!pair.ok()) {
        failures.push_back(scope + " pair disagreement:\n" + pair.summary());
      }

      // Regression gate over the fault-free leg. Latency budget is 1.25x
      // the checked-in value (+250us absolute floor for tiny quantities);
      // confidentiality must match to 1e-9 — the metrics are functions of
      // the spec-fixed op stream only. Message counts repeat exactly for a
      // spec, so a count must equal its baseline: a fall left unrecorded
      // would let a later change add those messages back unseen.
      for (const auto& [metric, value] : baseline_metrics(a)) {
        new_baseline[scope + " " + metric] = value;
        if (write_baseline || !found_baseline) continue;
        auto it = baseline.find(scope + " " + metric);
        if (it == baseline.end()) {
          failures.push_back(scope + ": no baseline for " + metric +
                             " (run dla_traffic --write-baseline)");
          continue;
        }
        if (is_confidentiality(metric)) {
          if (std::abs(value - it->second) >
              1e-9 * std::max(1.0, std::abs(it->second))) {
            failures.push_back(scope + ": " + metric + " drifted from " +
                               fmt(it->second) + " to " + fmt(value));
          }
        } else if (is_count(metric)) {
          if (value != it->second) {
            failures.push_back(scope + ": " + metric + " moved: " +
                               fmt(value) + " messages vs baseline " +
                               fmt(it->second) +
                               " (regenerate the baseline if intended)");
          }
        } else if (value > it->second * 1.25 + 250.0) {
          failures.push_back(scope + ": " + metric + " regressed: " +
                             fmt(value) + "us vs baseline " +
                             fmt(it->second) + "us (budget 1.25x + 250)");
        }
      }
      if (!write_baseline && found_baseline) {
        // A vanished metric (e.g. a class stopped completing) is a
        // regression too, not a free pass.
        const auto metrics = baseline_metrics(a);
        for (const auto& [key, _] : baseline) {
          if (key.rfind(scope + " ", 0) != 0) continue;
          std::string metric = key.substr(scope.size() + 1);
          if (!metrics.contains(metric)) {
            failures.push_back(scope + ": baseline metric " + metric +
                               " no longer produced");
          }
        }
      }

      runs.push_back(std::move(a));
      runs.push_back(std::move(b));
      pairs.push_back({spec.name, backend, std::move(pair)});
    }
  }

  // Fault-injection canary (sim transport, fault-free): the harness MUST
  // report I1/I2 violations for a mid-run glsn rewind; a silent pass means
  // the invariant checks are broken.
  bool canary_caught = true;
  if (!smoke && only_scenario.empty()) {
    setenv("DLA_TRANSPORT", "sim", 1);
    ScenarioSpec canary = rewind_canary();
    std::cerr << "[traffic] " << canary.name << " on sim (must be caught)\n";
    RunResult r = dla::audit::run_scenario(canary, RunOptions{});
    canary_caught = !r.invariants.ok();
    bool names_sequencing = false;
    for (const std::string& v : r.invariants.violations) {
      if (v.find("I1") != std::string::npos ||
          v.find("I2") != std::string::npos) {
        names_sequencing = true;
      }
    }
    if (!canary_caught || !names_sequencing) {
      failures.push_back(
          "rewind canary NOT caught: debug_rewind_glsn mid-run produced no "
          "I1/I2 violation (seed " + std::to_string(canary.seed) + ")");
    } else {
      std::cerr << "[traffic] canary caught (" << r.invariants.violations.size()
                << " violations, reproduce with seed "
                << canary.seed << ")\n";
    }
    runs.push_back(std::move(r));
  }

  if (write_baseline && !baseline_path.empty()) {
    std::ofstream out(baseline_path);
    out << "# dla_traffic fault-free baselines: <scenario>/<transport> "
           "<metric> <value>\n"
        << "# Regenerate with: dla_traffic --baseline=<path> "
           "--write-baseline\n";
    for (const auto& [key, value] : new_baseline) {
      out << key << " " << fmt(value) << "\n";
    }
    std::cerr << "[traffic] wrote " << new_baseline.size()
              << " baseline entries to " << baseline_path << "\n";
  }

  std::ofstream js(json_path);
  js << "{\n  \"benchmark\": \"traffic\",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    emit_run(js, runs[i]);
    js << (i + 1 < runs.size() ? ",\n" : "\n");
  }
  js << "  ],\n  \"pairs\": [\n";
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    js << "    {\"scenario\": \"" << esc(pairs[i].scenario)
       << "\", \"transport\": \"" << pairs[i].transport
       << "\", \"ok\": " << (pairs[i].report.ok() ? "true" : "false")
       << ", \"violations\": [";
    const auto& v = pairs[i].report.violations;
    for (std::size_t j = 0; j < v.size(); ++j) {
      if (j) js << ", ";
      js << "\"" << esc(v[j]) << "\"";
    }
    js << "]}" << (i + 1 < pairs.size() ? ",\n" : "\n");
  }
  js << "  ],\n  \"canary_caught\": " << (canary_caught ? "true" : "false")
     << ",\n  \"failures\": [\n";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    js << "    \"" << esc(failures[i]) << "\""
       << (i + 1 < failures.size() ? ",\n" : "\n");
  }
  js << "  ]\n}\n";
  js.close();
  std::cerr << "[traffic] wrote " << json_path << " (" << runs.size()
            << " runs, " << pairs.size() << " pairs)\n";

  std::error_code ec;
  std::filesystem::remove_all(storage_root(), ec);

  if (!failures.empty()) {
    std::cerr << "\n[traffic] FAILURES (" << failures.size() << "):\n";
    for (const std::string& f : failures) std::cerr << "  - " << f << "\n";
    return 1;
  }
  std::cerr << "[traffic] all scenarios passed\n";
  return 0;
}
