#include "workload.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <unordered_map>

#include "audit/cluster.hpp"
#include "audit/metrics.hpp"
#include "audit/traffic_harness.hpp"
#include "crypto/rng.hpp"
#include "logm/storage_engine.hpp"
#include "logm/workload.hpp"
#include "oracle.hpp"
#include "spans.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace dla;

const char* op_name(OpKind kind) {
  switch (kind) {
    case OpKind::Write: return "write";
    case OpKind::Delete: return "delete";
    case OpKind::Integrity: return "integrity";
    case OpKind::QueryLocal: return "query_local";
    case OpKind::QueryCross: return "query_cross";
    case OpKind::Aggregate: return "aggregate";
  }
  return "unknown";
}

WorkloadSpec workload_spec(const std::string& name, double scale) {
  auto scaled = [scale](std::size_t n) {
    return std::max<std::size_t>(8, static_cast<std::size_t>(
                                        static_cast<double>(n) * scale));
  };
  WorkloadSpec w;
  w.name = name;
  if (name == "ingest_durable") {
    // The logging path: sequencer, logging protocol, WAL/seal/compaction.
    // Small shares of the read classes keep every op class measured; their
    // criteria stay selective so ring-pass crypto remains a sliver.
    w.durable = true;
    w.sessions = 4;
    w.preload = scaled(400);
    w.ops = scaled(8000);
    w.mix = Mix{.write = 0.72, .del = 0.10, .integrity = 0.06,
                .query_local = 0.06, .query_cross = 0.03, .aggregate = 0.03};
    w.users = 1000;
    w.transactions = 1000;
  } else if (name == "audit_read") {
    // The auditor's path over a preloaded store: crypto and the local query
    // engine do the work; writes keep the gateway cache invalidating. The
    // store is 6k records: at 30k a run fits only two rounds (the preload
    // alone takes ~10 s), too few replays to hold throughput within its
    // bound on a shared machine. Every round replays the same
    // stream, so the stream must be long enough that its delete and
    // cross-query percentiles do not depend on the seed.
    w.durable = false;
    w.sessions = 1;
    w.preload = scaled(6000);
    w.ops = scaled(1500);
    w.mix = Mix{.write = 0.14, .del = 0.12, .integrity = 0.05,
                .query_local = 0.42, .query_cross = 0.19, .aggregate = 0.08};
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

// ============================================================== inputs ====
namespace {

// Skew of criteria draws over the pools. Mild, so that no single criterion
// (whose result sizes and cache luck vary with the seed) dominates a run.
constexpr double kZipfS = 0.5;
// Pool size: each pass adds 5 local and 2 cross criteria; every second pass
// adds 4 aggregates.
constexpr int kPoolPasses = 12;

// Zipf(s) rank sampler over [0, n).
class Zipf {
 public:
  Zipf(std::size_t n, double s) {
    double cum = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      cum += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_.push_back(cum);
    }
  }
  std::size_t sample(crypto::ChaCha20Rng& rng) const {
    const double u = rng.next_double() * cdf_.back();
    return static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

OpKind sample_kind(const Mix& mix, crypto::ChaCha20Rng& rng) {
  const std::array<double, kOpKinds> w = {mix.write,       mix.del,
                                          mix.integrity,   mix.query_local,
                                          mix.query_cross, mix.aggregate};
  double total = 0.0;
  for (double v : w) total += v;
  double u = rng.next_double() * total;
  for (std::size_t i = 0; i < kOpKinds; ++i) {
    u -= w[i];
    if (u < 0.0) return static_cast<OpKind>(i);
  }
  return OpKind::Write;
}

// Criteria pools in Zipf rank order, shapes interleaved so every shape is
// drawn at both high and low ranks. Constants come from the seed; the
// selectivities do not. Intersections outnumber unions 3:1, so the cross
// median lies inside the intersection costs and p90 inside the (about twice
// as costly) unions, not on the edge between them.
void make_pools(const WorkloadSpec& w, crypto::ChaCha20Rng& rng,
                Inputs& in) {
  auto user = [&] { return "'U" + std::to_string(rng.next_below(w.users)) + "'"; };
  auto tid = [&] {
    return "'T" + std::to_string(rng.next_below(w.transactions)) + "'";
  };
  auto num = [&](std::uint64_t base, std::uint64_t span) {
    return std::to_string(base + rng.next_below(span)) + ".0";
  };
  for (int pass = 0; pass < kPoolPasses; ++pass) {
    in.criteria.push_back({"id = " + user(), "equality"});
    in.criteria.push_back({"C2 > " + num(898, 4), "range"});
    in.criteria.push_back(
        {"id IN (" + user() + ", " + user() + ", " + user() + ")", "in_fan"});
    in.criteria.push_back(
        {"id = " + user() + " AND C2 > " + num(495, 10), "conjunction"});
    in.criteria.push_back({"id = " + user() + " OR C2 > 990.0", "fallback"});
    in.criteria.push_back({"id = " + user() + " AND Tid = " + tid(), "intersect"});
    if (pass % 2 == 0) {
      in.criteria.push_back({"id = " + user() + " AND Tid = " + tid(), "intersect"});
    } else {
      in.criteria.push_back({"id = " + user() + " OR Tid = " + tid(), "union"});
    }
  }
  const logm::Schema schema = logm::paper_schema();
  const logm::AttributePartition partition = logm::paper_partition();
  for (Criterion& c : in.criteria) {
    std::set<std::size_t> nodes;
    for (const audit::Subquery& sq : audit::normalize(c.text, schema, partition)) {
      nodes.insert(sq.nodes.begin(), sq.nodes.end());
    }
    c.cross = nodes.size() > 1;
  }
  // Sums lead the ranks, so the median aggregate is a secure sum, not a
  // count answered from the glsn set alone.
  for (int pass = 0; pass < kPoolPasses / 2; ++pass) {
    in.aggregates.push_back({"id = " + user(), audit::AggOp::Sum, "C1"});
    in.aggregates.push_back({"Tid = " + tid(), audit::AggOp::Sum, "C1"});
    in.aggregates.push_back({"id = " + user(), audit::AggOp::Count, ""});
    in.aggregates.push_back(
        {"id = " + user() + " AND Tid = " + tid(), audit::AggOp::Count, ""});
  }
}

}  // namespace

Inputs make_inputs(const WorkloadSpec& w, std::uint64_t seed) {
  Inputs in;
  in.seed = seed;
  crypto::ChaCha20Rng rng("perfbench/" + w.name + "/" + std::to_string(seed));
  logm::WorkloadSpec records_spec;
  records_spec.records = w.preload + w.ops;
  records_spec.users = w.users;
  records_spec.transactions = w.transactions;
  std::vector<logm::LogRecord> records =
      logm::generate_workload(records_spec, rng);
  in.preload.assign(records.begin(),
                    records.begin() + static_cast<std::ptrdiff_t>(w.preload));
  make_pools(w, rng, in);

  std::vector<std::size_t> local, cross;
  for (std::size_t i = 0; i < in.criteria.size(); ++i) {
    (in.criteria[i].cross ? cross : local).push_back(i);
  }
  const Zipf local_zipf(local.size(), kZipfS);
  const Zipf cross_zipf(cross.size(), kZipfS);
  const Zipf agg_zipf(in.aggregates.size(), kZipfS);

  // Per session: write ops not yet targeted by a delete.
  std::vector<std::vector<std::size_t>> deletable(w.sessions);
  in.ops.reserve(w.ops);
  for (std::size_t i = 0; i < w.ops; ++i) {
    Op op;
    op.session = i % w.sessions;
    op.kind = sample_kind(w.mix, rng);
    if (op.kind == OpKind::Delete && deletable[op.session].empty()) {
      op.kind = OpKind::Write;
    }
    if (op.kind == OpKind::Integrity && in.preload.empty()) {
      op.kind = OpKind::Write;
    }
    switch (op.kind) {
      case OpKind::Write:
        op.attrs = records[w.preload + i].attrs;
        deletable[op.session].push_back(i);
        break;
      case OpKind::Delete: {
        auto& pool = deletable[op.session];
        const std::size_t k = rng.next_below(pool.size());
        op.target = pool[k];
        pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(k));
        break;
      }
      case OpKind::Integrity:
        op.target = rng.next_below(in.preload.size());
        break;
      case OpKind::QueryLocal:
        op.pick = local[local_zipf.sample(rng)];
        break;
      case OpKind::QueryCross:
        op.pick = cross[cross_zipf.sample(rng)];
        break;
      case OpKind::Aggregate:
        op.pick = agg_zipf.sample(rng);
        break;
    }
    in.ops.push_back(std::move(op));
  }
  return in;
}

// =============================================================== round ====
namespace {

// Timer-driven issuer: each firing starts the next op of one session.
class InjectorNode final : public net::Node {
 public:
  std::function<void(std::uint64_t)> fire;
  void on_message(net::Transport&, const net::Message&) override {}
  void on_timer(net::Transport&, std::uint64_t timer_id) override {
    fire(timer_id);
  }
};

// Process CPU time (user + sys, every thread), ns.
std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// Resets the kernel's peak-RSS mark to the current RSS (clear_refs "5").
// Where the kernel refuses, the mark stays the process's own peak; that is
// said once on stderr.
void reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5" << std::flush;
  static bool warned = false;
  if (!f && !warned) {
    warned = true;
    std::fprintf(stderr,
                 "perfbench: WARNING cannot reset the peak-RSS mark; "
                 "peak_rss_mb is the process peak\n");
  }
}

// VmHWM of /proc/self/status, MB.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

// Calls fn(glsn, attrs, live) for every record the round wrote: the preload,
// then acked writes in op order. live is false once a successful delete
// targeted the record.
template <typename Fn>
void for_each_written(const Inputs& in, const RoundResult& round, Fn&& fn) {
  std::set<logm::Glsn> deleted;
  for (std::size_t i = 0; i < in.ops.size(); ++i) {
    if (in.ops[i].kind == OpKind::Delete && round.records[i].ok) {
      deleted.insert(round.records[i].target_glsn);
    }
  }
  for (std::size_t i = 0; i < in.preload.size(); ++i) {
    const logm::Glsn g = round.preload_glsns[i];
    fn(g, in.preload[i].attrs, !deleted.contains(g));
  }
  for (std::size_t i = 0; i < in.ops.size(); ++i) {
    const auto& g = round.records[i].glsn;
    if (in.ops[i].kind == OpKind::Write && g) {
      fn(*g, in.ops[i].attrs, !deleted.contains(*g));
    }
  }
}

std::size_t encoded_size(const logm::Fragment& frag) {
  net::Writer w;
  frag.encode(w);
  return std::move(w).take().size();
}

// Bytes the segment engines write: every new segment file (seal or
// compaction output) plus the WAL, sampled at each segment-sync boundary.
struct StorageAccount {
  std::set<std::string> seen;
  double written = 0.0;

  void on_segment_synced(const std::string& dir) {
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      const std::string name = entry.path().filename().string();
      const bool segment = name.rfind("seg-", 0) == 0;
      if (name == "wal.log" || (segment && seen.insert(entry.path()).second)) {
        written += static_cast<double>(entry.file_size(ec));
      }
    }
  }
};

constexpr audit::SessionId kIntegrityBase = 0x6200000;
// Delivered messages a traced round keeps for the framing layer call.
constexpr std::size_t kFrameSample = 512;

}  // namespace

RoundResult run_round(const WorkloadSpec& spec, const Inputs& in,
                      const RoundOptions& opt) {
  RoundResult res;
  res.records.resize(in.ops.size());
  if (spec.durable) fs::remove_all(opt.storage_dir);
  StorageAccount storage;
  reset_peak_rss();
  {
    const std::int64_t setup0 = now_ns();
    audit::Cluster::Options copts;
    copts.schema = logm::paper_schema();
    copts.dla_count = 4;
    copts.user_count = spec.sessions;
    copts.partition = logm::paper_partition();
    copts.seed = in.seed;
    copts.auditor_users = true;
    copts.certify_reports = true;
    copts.set_chunk_size = 64;
    audit::Cluster cluster(copts);
    net::Simulator& sim = cluster.sim();

    std::vector<logm::SegmentEngine*> engines;
    if (spec.durable) {
      // The stated flush policy: fsync at seal boundaries only. Each store
      // seals about six times and compacts once per round; merges stop at
      // 4096 rows, so no round ends in one merge of everything. The memtable
      // is not smaller because every seal's fsyncs wait on the disk: at 256
      // rows, on a disk other tenants loaded, those waits took up to 40% of
      // the op phase and the p95s swung 2x between runs.
      logm::SegmentEngine::Options sopts;
      sopts.memtable_max_records = 1024;
      sopts.compaction_fanout = 4;
      sopts.max_compaction_rows = 4096;
      sopts.sync_mode = logm::SegmentEngine::SyncMode::OnSeal;
      for (std::size_t i = 0; i < cluster.dla_count(); ++i) {
        const std::string base = opt.storage_dir + "/node" + std::to_string(i);
        auto primary =
            std::make_unique<logm::SegmentEngine>(base + "/primary", sopts);
        auto replica =
            std::make_unique<logm::SegmentEngine>(base + "/replica", sopts);
        for (logm::SegmentEngine* e : {primary.get(), replica.get()}) {
          e->set_crash_hook(logm::SegmentEngine::CrashPoint::AfterSegmentSync,
                            [&storage, dir = e->dir()] {
                              storage.on_segment_synced(dir);
                            });
        }
        engines.push_back(primary.get());
        cluster.dla(i).set_storage(std::move(primary), std::move(replica));
      }
    }
    // Delete-capable auditor tickets: sessions delete their own writes.
    for (std::size_t u = 0; u < spec.sessions; ++u) {
      cluster.user(u).configure(
          cluster.config(),
          cluster.issue_ticket("BENCH" + std::to_string(u),
                               cluster.user(u).name(),
                               {logm::Op::Read, logm::Op::Write,
                                logm::Op::Delete},
                               /*auditor=*/true));
    }

    // ---- setup: preload through the protocol, pipelined ----
    res.setup_mark_ns = {setup0, now_ns()};
    res.preload_glsns.assign(in.preload.size(), 0);
    std::size_t refused = 0;
    constexpr std::size_t kWindow = 64;
    for (std::size_t start = 0; start < in.preload.size(); start += kWindow) {
      const std::size_t end = std::min(in.preload.size(), start + kWindow);
      for (std::size_t i = start; i < end; ++i) {
        cluster.user(i % spec.sessions)
            .log_record(sim, in.preload[i].attrs,
                        [&res, &refused, i](std::optional<logm::Glsn> g) {
                          if (g) {
                            res.preload_glsns[i] = *g;
                          } else {
                            ++refused;
                          }
                        });
      }
      cluster.run();
      res.setup_mark_ns.push_back(now_ns());
    }
    if (refused != 0) {
      throw std::runtime_error(std::to_string(refused) +
                               " preload writes refused");
    }
    res.setup_s =
        static_cast<double>(res.setup_mark_ns.back() - setup0) * 1e-9;

    // ---- op phase ----
    audit::reset_crypto_op_counters();
    audit::reset_query_engine_counters();
    audit::reset_gateway_cache_counters();
    audit::reset_storage_counters();
    sim.reset_stats();

    // Message class of each delivery, via the program's own classifier.
    std::vector<std::string> class_names = {"timer"};
    std::unordered_map<std::uint32_t, std::size_t> class_of_type;
    std::vector<std::uint64_t> class_msgs(1, 0);
    std::size_t cur_class = 0;
    std::int64_t cur_dst = -1;
    sim.set_deliver_hook([&](const net::Message& m) {
      auto it = class_of_type.find(m.type);
      if (it == class_of_type.end()) {
        const std::string name(
            audit::classify_message(static_cast<audit::MsgType>(m.type)));
        auto pos = std::find(class_names.begin(), class_names.end(), name);
        if (pos == class_names.end()) {
          class_names.push_back(name);
          class_msgs.push_back(0);
          pos = class_names.end() - 1;
        }
        it = class_of_type
                 .emplace(m.type,
                          static_cast<std::size_t>(pos - class_names.begin()))
                 .first;
      }
      cur_class = it->second;
      cur_dst = m.dst;
      ++class_msgs[cur_class];
      if (opt.tracer != nullptr && res.frames.size() < kFrameSample) {
        res.frames.push_back(m);
      }
    });

    InjectorNode injector;
    const net::NodeId injector_id = sim.add_node(injector);
    const net::SimTime t0 = sim.now();

    std::vector<std::vector<std::size_t>> queue(spec.sessions);
    for (std::size_t i = 0; i < in.ops.size(); ++i) {
      queue[in.ops[i].session].push_back(i);
    }
    std::vector<std::size_t> cursor(spec.sessions, 0);
    std::map<std::uint64_t, std::size_t> timer_session;
    std::map<audit::SessionId, std::size_t> integrity_ops;

    auto schedule = [&](std::size_t s) {
      if (cursor[s] < queue[s].size()) {
        timer_session[sim.set_timer(injector_id, 0)] = s;
      }
    };
    auto complete = [&](std::size_t idx) {
      OpRecord& rec = res.records[idx];
      if (rec.done) return;
      rec.done = true;
      rec.wall_done_ns = now_ns();
      rec.sim_done = sim.now() - t0;
      schedule(in.ops[idx].session);
    };
    for (std::size_t n = 0; n < cluster.dla_count(); ++n) {
      cluster.dla(n).on_integrity_result = [&](audit::SessionId session,
                                               logm::Glsn, bool ok) {
        auto it = integrity_ops.find(session);
        if (it == integrity_ops.end()) return;
        res.records[it->second].ok = ok;
        complete(it->second);
      };
    }

    std::size_t issued = 0;
    auto issue = [&](std::size_t idx) {
      const Op& op = in.ops[idx];
      OpRecord& rec = res.records[idx];
      if (++issued % kMarkEvery == 0) {
        res.mark_cpu_ns.push_back(cpu_ns());
        res.mark_wall_ns.push_back(now_ns());
      }
      rec.wall_issued_ns = now_ns();
      rec.sim_issued = sim.now() - t0;
      audit::UserNode& user = cluster.user(op.session);
      switch (op.kind) {
        case OpKind::Write:
          user.log_record(sim, op.attrs,
                          [&, idx](std::optional<logm::Glsn> g) {
                            res.records[idx].ok = g.has_value();
                            res.records[idx].glsn = g;
                            complete(idx);
                          });
          break;
        case OpKind::Delete: {
          const std::optional<logm::Glsn>& target = res.records[op.target].glsn;
          if (!target) {
            complete(idx);  // the targeted write failed: counted as failed
            break;
          }
          rec.target_glsn = *target;
          user.delete_record(sim, *target, [&, idx](bool all_deleted) {
            res.records[idx].ok = all_deleted;
            complete(idx);
          });
          break;
        }
        case OpKind::Integrity: {
          rec.target_glsn = res.preload_glsns[op.target];
          const audit::SessionId session = kIntegrityBase + idx;
          integrity_ops[session] = idx;
          cluster.dla(idx % cluster.dla_count())
              .start_integrity_check(sim, session, rec.target_glsn);
          break;
        }
        case OpKind::QueryLocal:
        case OpKind::QueryCross:
          user.query(sim, in.criteria[op.pick].text,
                     [&, idx](audit::QueryOutcome o) {
                       // Certified reports: success includes a verified
                       // threshold co-signature.
                       res.records[idx].ok = o.ok && o.certified;
                       res.records[idx].result = std::move(o.glsns);
                       complete(idx);
                     });
          break;
        case OpKind::Aggregate: {
          const AggSpec& agg = in.aggregates[op.pick];
          user.aggregate_query(sim, agg.criterion, agg.op, agg.attr,
                               [&, idx](audit::AggregateOutcome o) {
                                 res.records[idx].ok = o.ok;
                                 res.records[idx].agg_value = o.value;
                                 res.records[idx].agg_count = o.count;
                                 complete(idx);
                               });
          break;
        }
      }
    };
    injector.fire = [&](std::uint64_t timer_id) {
      auto it = timer_session.find(timer_id);
      if (it == timer_session.end()) return;
      const std::size_t s = it->second;
      timer_session.erase(it);
      issue(queue[s][cursor[s]++]);
    };

    Tracer* tracer = opt.tracer;
    const std::int64_t cpu0 = cpu_ns();
    const std::int64_t phase0 = now_ns();
    res.mark_cpu_ns.push_back(cpu0);
    res.mark_wall_ns.push_back(phase0);
    std::int32_t phase_span = -1;
    std::vector<std::int64_t> class_step_ns;
    if (tracer != nullptr) phase_span = tracer->open("phase", "ops");
    for (std::size_t s = 0; s < spec.sessions; ++s) schedule(s);
    const std::uint32_t step_kind = tracer ? tracer->intern("step") : 0;
    std::vector<std::uint32_t> labels;
    for (;;) {
      cur_class = 0;  // stays "timer" unless the deliver hook fires
      cur_dst = -1;
      const std::int64_t a = tracer ? now_ns() : 0;
      if (!sim.step()) break;
      if (cur_class == 0) ++class_msgs[0];
      if (tracer == nullptr) continue;
      const std::int64_t b = now_ns();
      if (class_step_ns.size() < class_names.size()) {
        class_step_ns.resize(class_names.size(), 0);
      }
      class_step_ns[cur_class] += b - a;
      while (labels.size() < class_names.size()) {
        labels.push_back(tracer->intern(class_names[labels.size()]));
      }
      tracer->add(step_kind, labels[cur_class], cur_dst, phase_span, a, b);
    }
    const std::int64_t cpu1 = cpu_ns();
    const std::int64_t phase1 = now_ns();
    res.mark_cpu_ns.push_back(cpu1);
    res.mark_wall_ns.push_back(phase1);
    res.cpu_s = static_cast<double>(cpu1 - cpu0) * 1e-9;
    res.phase_s = static_cast<double>(phase1 - phase0) * 1e-9;
    res.peak_rss_mb = peak_rss_mb();
    if (tracer != nullptr) {
      tracer->close(phase_span);
      std::int64_t steps = 0;
      for (std::size_t c = 0; c < class_step_ns.size(); ++c) {
        res.class_ns[class_names[c]] = class_step_ns[c];
        steps += class_step_ns[c];
      }
      res.harness_ns = (phase1 - phase0) - steps;
      const std::uint32_t op_kind = tracer->intern("op");
      for (std::size_t i = 0; i < in.ops.size(); ++i) {
        const OpRecord& rec = res.records[i];
        const Op& op = in.ops[i];
        std::string label = op_name(op.kind);
        if (op.kind == OpKind::QueryLocal || op.kind == OpKind::QueryCross) {
          label += "/" + in.criteria[op.pick].shape;
        } else if (op.kind == OpKind::Aggregate) {
          label += "/" + std::to_string(op.pick);
        }
        tracer->add(op_kind, tracer->intern(label),
                    static_cast<std::int64_t>(i), -1, rec.wall_issued_ns,
                    rec.wall_done_ns);
      }
    }

    // ---- deterministic counts of the phase (before probes touch them) ----
    const auto crypto_ops = audit::crypto_op_counters();
    const auto engine = audit::query_engine_counters();
    const auto cache = audit::gateway_cache_counters();
    const auto store = audit::storage_counters();
    auto& counts = res.counts;
    counts["net.messages"] = sim.stats().messages_sent;
    counts["net.bytes"] = sim.stats().bytes_sent;
    for (std::size_t c = 0; c < class_names.size(); ++c) {
      counts["msgs." + class_names[c]] = class_msgs[c];
    }
    counts["crypto.modexp"] = crypto_ops.modexp_count;
    counts["crypto.modexp_batches"] = crypto_ops.modexp_batch_count;
    counts["logm.index_hits"] = engine.index_hits;
    counts["logm.rows_scanned"] = engine.rows_scanned;
    counts["logm.planner_fallbacks"] = engine.planner_fallbacks;
    counts["logm.short_circuited"] = engine.conjuncts_short_circuited;
    counts["cache.hits"] = cache.cache_hits;
    counts["cache.misses"] = cache.cache_misses;
    counts["cache.invalidations"] = cache.cache_invalidations;
    counts["logm.seals"] = store.segments_sealed;
    counts["logm.compactions"] = store.segment_compactions;
    counts["logm.zone_map_skips"] = store.zone_map_skips;
    counts["logm.segment_rows_decoded"] = store.segment_rows_decoded;
    counts["logm.segment_probe_hits"] = store.segment_probe_hits;
    for (std::size_t i = 0; i < in.ops.size(); ++i) {
      ++counts[std::string("ops.") + op_name(in.ops[i].kind)];
    }
    sim.set_deliver_hook(nullptr);

    // ---- oracle ----
    for (OpRecord& rec : res.records) std::sort(rec.result.begin(), rec.result.end());
    if (opt.tamper) {
      // Self-test: slip a foreign glsn into the first completed query.
      for (std::size_t i = 0; i < in.ops.size(); ++i) {
        if (in.ops[i].kind == OpKind::QueryLocal && res.records[i].done) {
          res.records[i].result.push_back(~logm::Glsn{0});
          break;
        }
      }
    }
    Oracle oracle(in, res.preload_glsns, res.records);
    res.violations = oracle.check_ops(res.records);
    if (opt.probes) {
      for (const Criterion& c : in.criteria) {
        std::optional<audit::QueryOutcome> out;
        cluster.user(0).query(sim, c.text,
                              [&out](audit::QueryOutcome o) { out = std::move(o); });
        cluster.run();
        std::string why;
        if (!out || !out->ok || !out->certified) {
          why = "probe '" + c.text + "' failed";
        } else {
          std::sort(out->glsns.begin(), out->glsns.end());
          why = oracle.check_final_query(c.text, out->glsns);
        }
        if (!why.empty()) res.violations.push_back(why);
      }
      for (const AggSpec& agg : in.aggregates) {
        std::optional<audit::AggregateOutcome> out;
        cluster.user(0).aggregate_query(
            sim, agg.criterion, agg.op, agg.attr,
            [&out](audit::AggregateOutcome o) { out = o; });
        cluster.run();
        std::string why = !out || !out->ok
                              ? "probe aggregate '" + agg.criterion + "' failed"
                              : oracle.check_final_aggregate(agg, out->value,
                                                             out->count);
        if (!why.empty()) res.violations.push_back(why);
      }
    }

    // ---- storage amplification inputs ----
    if (spec.durable) {
      for (logm::SegmentEngine* e : engines) {
        for (const auto& seg : e->segments()) {
          res.storage_live_bytes += static_cast<double>(seg->file_bytes());
        }
        std::error_code ec;
        const auto wal = fs::file_size(e->dir() + "/wal.log", ec);
        if (!ec) {
          res.storage_live_bytes += static_cast<double>(wal);
          storage.written += static_cast<double>(wal);
        }
      }
      res.storage_written_bytes = storage.written;
      const logm::AttributePartition partition = logm::paper_partition();
      for_each_written(in, res, [&](logm::Glsn g, const auto& attrs, bool live) {
        for (const logm::Fragment& f :
             partition.fragment(logm::LogRecord{g, attrs})) {
          const double n = static_cast<double>(encoded_size(f));
          res.user_written_bytes += n;
          if (live) res.user_live_bytes += n;
        }
      });
    }

    for (std::size_t n = 0; n < cluster.dla_count(); ++n) {
      cluster.dla(n).on_integrity_result = nullptr;
    }
  }
  if (spec.durable) fs::remove_all(opt.storage_dir);
  return res;
}

std::vector<logm::LogRecord> live_records(const Inputs& in,
                                          const RoundResult& round) {
  std::vector<logm::LogRecord> out;
  for_each_written(in, round, [&out](logm::Glsn g, const auto& attrs, bool live) {
    if (live) out.push_back(logm::LogRecord{g, attrs});
  });
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.glsn < b.glsn; });
  return out;
}

}  // namespace perfbench
