#include "audit/traffic_harness.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "audit/local_query.hpp"
#include "crypto/rng.hpp"
#include "logm/workload.hpp"

namespace dla::audit {

std::string_view to_string(OpClass cls) {
  switch (cls) {
    case OpClass::Write: return "write";
    case OpClass::Query: return "query";
    case OpClass::Aggregate: return "aggregate";
    case OpClass::Delete: return "delete";
    case OpClass::Integrity: return "integrity";
  }
  return "unknown";
}

std::string_view classify_message(MsgType type) {
  switch (type) {
    case kGlsnRequest:
    case kGlsnForward:
    case kGlsnPropose:
    case kGlsnVote:
    case kGlsnCommit:
    case kGlsnReply:
      return "sequencing";
    case kLogFragment:
    case kLogAck:
    case kAccumDeposit:
    case kFragmentRequest:
    case kFragmentReply:
    case kFragmentDelete:
    case kDeleteReply:
      return "logging";
    case kSetStart:
    case kSetRing:
    case kSetFull:
    case kSetDecrypt:
    case kSetResult:
      return "set-ring";
    case kSumStart:
    case kSumShare:
    case kSumEval:
    case kSumResult:
      return "secure-sum";
    case kCmpParams:
    case kCmpSpec:
    case kCmpValue:
    case kCmpResult:
    case kRankResult:
    case kCmpBatch:
    case kCmpBatchResult:
      return "comparison";
    case kIntegrityPass:
      return "integrity";
    case kAuditQuery:
    case kAuditResult:
    case kSubqueryExec:
    case kSubqueryDone:
    case kSubqueryFetch:
    case kSubqueryData:
    case kJoinExec:
    case kCombineExec:
    case kCombineReady:
    case kAggregateQuery:
    case kAggregateExec:
    case kAggregateValue:
    case kAggregateResult:
      return "query";
    case kHeartbeat:
      return "heartbeat";
    case kScalarInit:
    case kScalarRandomness:
    case kScalarMaskedA:
    case kScalarReply:
    case kScalarResult:
      return "scalar-product";
    case kDkgStart:
    case kDkgCommit:
    case kDkgShare:
      return "dkg";
    case kSignRequest:
    case kSignNonce:
    case kSignChallenge:
    case kSignShare:
      return "certification";
    case kTokenRequest:
    case kTokenReply:
    case kPolicyProposal:
    case kServiceCommitment:
    case kEvidenceGrant:
      return "membership";
    case kLedgerAppend:
    case kLedgerTailsRequest:
    case kLedgerTailsReply:
      return "ledger";
  }
  return "other";
}

// ======================================================== op generation ====
namespace {

// Zipf(s) sampler over [0, n): cumulative harmonic table + binary search.
// s == 0 degrades to uniform without building the table, so populations in
// the millions stay cheap when unskewed.
class IdentitySampler {
 public:
  IdentitySampler(std::size_t n, double s) : n_(std::max<std::size_t>(1, n)) {
    if (s <= 0.0) return;
    cdf_.reserve(n_);
    double cum = 0.0;
    for (std::size_t k = 0; k < n_; ++k) {
      cum += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_.push_back(cum);
    }
  }

  std::size_t sample(crypto::ChaCha20Rng& rng) const {
    if (cdf_.empty()) return rng.next_below(n_);
    double u = rng.next_double() * cdf_.back();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::size_t>(it - cdf_.begin());
  }

 private:
  std::size_t n_;
  std::vector<double> cdf_;
};

// Deterministic arrival-time stream for the configured process.
class ArrivalClock {
 public:
  ArrivalClock(const ScenarioSpec& spec, crypto::ChaCha20Rng& rng)
      : spec_(spec), rng_(rng) {}

  net::SimTime next() {
    const net::SimTime gap = std::max<net::SimTime>(1, spec_.mean_gap_us);
    switch (spec_.arrivals) {
      case ArrivalProcess::Uniform:
        t_ += gap;
        break;
      case ArrivalProcess::PoissonBatch: {
        if (batch_left_ == 0) {
          batch_left_ = 1 + rng_.next_below(std::max<std::size_t>(1, spec_.batch_max));
          // Exponential batch gap with mean gap*batch keeps the long-run
          // arrival rate at 1/gap while the instantaneous rate is bursty.
          double u = rng_.next_double();
          double mean = static_cast<double>(gap) *
                        static_cast<double>(batch_left_);
          t_ += 1 + static_cast<net::SimTime>(-mean * std::log(1.0 - u));
        }
        --batch_left_;  // ops within a batch share the arrival instant
        break;
      }
      case ArrivalProcess::OnOff: {
        t_ += gap;
        const net::SimTime on = std::max<net::SimTime>(1, spec_.on_window_us);
        const net::SimTime cycle = on + spec_.off_window_us;
        net::SimTime pos = t_ % cycle;
        if (pos >= on) t_ += cycle - pos;  // skip the silent window
        break;
      }
    }
    return t_;
  }

 private:
  const ScenarioSpec& spec_;
  crypto::ChaCha20Rng& rng_;
  net::SimTime t_ = 0;
  std::size_t batch_left_ = 0;
};

OpClass sample_class(const TrafficMix& mix, crypto::ChaCha20Rng& rng) {
  const double w[5] = {mix.write, mix.query, mix.aggregate, mix.del,
                       mix.integrity};
  double total = 0.0;
  for (double v : w) total += std::max(0.0, v);
  if (total <= 0.0) return OpClass::Write;
  double u = rng.next_double() * total;
  for (int i = 0; i < 5; ++i) {
    u -= std::max(0.0, w[i]);
    if (u < 0.0) return static_cast<OpClass>(i);
  }
  return OpClass::Write;
}

}  // namespace

std::vector<GeneratedOp> generate_ops(const ScenarioSpec& spec) {
  if (spec.user_nodes == 0) {
    throw std::invalid_argument("scenario needs at least one user session");
  }
  if (spec.reissue_every > 0 && spec.mix.del > 0.0) {
    // A record is deletable only under the ticket that logged it; churning
    // tickets mid-run would make delete authorization depend on protocol
    // timing and the pair runs would diverge legitimately.
    throw std::invalid_argument(
        "ticket churn (reissue_every) cannot be combined with deletes");
  }

  crypto::ChaCha20Rng rng("traffic/" + spec.name + "/" +
                          std::to_string(spec.seed));
  // Base attribute stream from the shared generator; `id` is re-drawn below
  // from the (optionally Zipf-skewed) identity population.
  crypto::ChaCha20Rng record_rng(spec.seed ^ 0x9e3779b97f4a7c15ull);
  logm::WorkloadSpec wspec;
  wspec.records = spec.ops;
  wspec.transactions = std::max<std::size_t>(1, spec.transactions);
  auto base = logm::generate_workload(wspec, record_rng);

  IdentitySampler identities(spec.identities, spec.zipf_s);
  ArrivalClock clock(spec, rng);

  std::vector<GeneratedOp> ops;
  ops.reserve(spec.ops);
  // Per session: write op indices not yet targeted by a delete.
  std::vector<std::vector<std::size_t>> deletable(spec.user_nodes);

  for (std::size_t i = 0; i < spec.ops; ++i) {
    GeneratedOp op;
    op.arrival = clock.next();
    op.session = i % spec.user_nodes;
    op.cls = sample_class(spec.mix, rng);

    // Degrade classes whose prerequisites are missing (empty pools, no
    // deletable write yet) instead of stalling the stream.
    if (op.cls == OpClass::Integrity && spec.preload_records == 0) {
      op.cls = OpClass::Query;
    }
    if (op.cls == OpClass::Delete && deletable[op.session].empty()) {
      op.cls = OpClass::Query;
    }
    if (op.cls == OpClass::Aggregate && spec.aggregates.empty()) {
      op.cls = OpClass::Query;
    }
    if (op.cls == OpClass::Query && spec.criteria.empty()) {
      op.cls = OpClass::Write;
    }

    switch (op.cls) {
      case OpClass::Write: {
        op.attrs = base[i].attrs;
        op.attrs["id"] = logm::Value(
            "U" + std::to_string(identities.sample(rng)));
        deletable[op.session].push_back(i);
        break;
      }
      case OpClass::Query:
        op.criterion = spec.criteria[rng.next_below(spec.criteria.size())];
        break;
      case OpClass::Aggregate: {
        const AggregateSpec& agg =
            spec.aggregates[rng.next_below(spec.aggregates.size())];
        op.criterion = agg.criterion;
        op.agg_op = agg.op;
        op.agg_attr = agg.attr;
        break;
      }
      case OpClass::Delete: {
        auto& pool = deletable[op.session];
        std::size_t pick = rng.next_below(pool.size());
        op.target = pool[pick];
        pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
        // Give the targeted write ample time to finish assignment; the
        // margin dwarfs protocol latency so the pair runs agree on whether
        // the target exists.
        op.arrival = std::max(op.arrival,
                              ops[op.target].arrival + spec.delete_margin_us);
        break;
      }
      case OpClass::Integrity:
        op.target = rng.next_below(spec.preload_records);
        break;
    }
    if (spec.reissue_every > 0 && i > 0 && i % spec.reissue_every == 0) {
      op.reissue_ticket = true;
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

// ============================================================ execution ====
namespace {

// Timer-driven injector: the only actor the harness adds to the simulator.
// It owns no protocol state; each timer firing issues exactly one op
// through the owning session's UserNode at its scheduled arrival.
class InjectorNode final : public net::Node {
 public:
  std::function<void(net::Transport&, std::uint64_t)> fire;
  void on_message(net::Transport&, const net::Message&) override {}
  void on_timer(net::Transport& t, std::uint64_t timer_id) override {
    if (fire) fire(t, timer_id);
  }
};

net::SimTime percentile(const std::vector<net::SimTime>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto n = sorted.size();
  std::size_t idx = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));
  if (idx == 0) idx = 1;
  if (idx > n) idx = n;
  return sorted[idx - 1];
}

LatencyStats latency_stats(std::vector<net::SimTime> samples) {
  LatencyStats out;
  out.count = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  out.p50 = percentile(samples, 0.50);
  out.p95 = percentile(samples, 0.95);
  out.p99 = percentile(samples, 0.99);
  out.p999 = percentile(samples, 0.999);
  out.max = samples.back();
  return out;
}

// [start, end] interval of a mutating op in a given run; end == 0 means it
// never completed, which we treat as open-ended.
bool overlaps_query(const OpRecord& m, const OpRecord& q) {
  if (m.skipped) return false;
  const net::SimTime m_end = m.completed;
  if (m.scheduled > q.completed && q.completed != 0) return false;
  if (q.completed == 0) return true;  // query never completed: be safe
  if (m_end != 0 && m_end < q.scheduled) return false;
  return true;
}

bool quiescent_in(const RunResult& run, std::size_t query_idx) {
  const OpRecord& q = run.ops[query_idx];
  for (const OpRecord& m : run.ops) {
    if (m.cls != OpClass::Write && m.cls != OpClass::Delete) continue;
    if (overlaps_query(m, q)) return false;
  }
  return true;
}

}  // namespace

RunResult run_scenario(const ScenarioSpec& spec, const RunOptions& opts) {
  RunResult res;
  res.scenario = spec.name;
  res.transport =
      opts.transport == Cluster::TransportKind::TcpRelay ? "tcp" : "sim";
  res.chaos = opts.chaos;
  res.chaos_seed = opts.chaos ? opts.chaos_seed : 0;

  Cluster::Options copts;
  copts.schema = logm::paper_schema();
  copts.dla_count = spec.dla_count;
  copts.user_count = spec.user_nodes;
  if (spec.dla_count == 4) copts.partition = logm::paper_partition();
  copts.seed = spec.seed;
  copts.auditor_users = true;
  copts.certify_reports = spec.certify_reports;
  copts.set_chunk_size = spec.set_chunk_size;
  copts.transport = opts.transport;
  if (!spec.storage_dir.empty()) {
    // Per-leg subdir, wiped up front so reruns start from an empty store.
    copts.storage_dir = spec.storage_dir + "/" + res.transport +
                        (opts.chaos ? "-chaos" : "-ff");
    std::filesystem::remove_all(copts.storage_dir);
    copts.storage.memtable_max_records = spec.storage_memtable_max;
    copts.storage.compaction_fanout = spec.storage_compaction_fanout;
    copts.storage.sync_mode = logm::SegmentEngine::SyncMode::OnSeal;
  }
  Cluster cluster(copts);
  if (spec.link_bytes_per_us > 0.0) {
    cluster.sim().set_link_bandwidth(spec.link_bytes_per_us);
  }
  // The cluster default ticket is read/write only; traffic sessions also
  // delete, so issue each one a delete-capable auditor ticket up front.
  for (std::size_t u = 0; u < spec.user_nodes; ++u) {
    Ticket full = cluster.issue_ticket(
        "TRF" + std::to_string(u), cluster.user(u).name(),
        {logm::Op::Read, logm::Op::Write, logm::Op::Delete},
        /*auditor=*/true);
    cluster.user(u).configure(cluster.config(), std::move(full));
  }

  reset_crypto_op_counters();
  reset_query_engine_counters();
  reset_wire_reject_counters();

  // Chaos attaches before the first send so RNG draws line up on replay.
  std::optional<net::ChaosEngine> chaos;
  if (opts.chaos) {
    chaos.emplace(opts.chaos_seed, spec.chaos);
    if (spec.chaos_outages > 0 || spec.chaos_partitions > 0) {
      chaos->randomize_schedule(cluster.config()->dla_nodes,
                                spec.chaos_outages, spec.chaos_partitions,
                                spec.chaos_horizon_us, spec.chaos_window_us);
    }
    cluster.sim().set_chaos(&*chaos);
  }

  cluster.sim().set_deliver_hook([&res](const net::Message& m) {
    ++res.messages_by_class[std::string(
        classify_message(static_cast<MsgType>(m.type)))];
  });

  const std::vector<GeneratedOp> ops = generate_ops(spec);

  // ---- preload (closed loop, one record at a time: issue order == glsn
  // order, so preload feeds the monotonicity check too) ----
  crypto::ChaCha20Rng preload_rng(spec.seed * 2654435761u + 7);
  logm::WorkloadSpec pspec;
  pspec.records = spec.preload_records;
  auto preload_records = logm::generate_workload(pspec, preload_rng);
  res.preload.resize(preload_records.size());
  for (std::size_t i = 0; i < preload_records.size(); ++i) {
    cluster.user(i % spec.user_nodes)
        .log_record(cluster.sim(), preload_records[i].attrs,
                    [&res, i](std::optional<logm::Glsn> g) {
                      res.preload[i] = g;
                    });
    cluster.run();
  }

  // ---- open-loop phase ----
  InjectorNode injector;
  const net::NodeId injector_id = cluster.sim().add_node(injector);
  const net::SimTime t0 = cluster.sim().now();

  res.ops.resize(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    res.ops[i].cls = ops[i].cls;
    res.ops[i].session = ops[i].session;
    res.ops[i].scheduled = ops[i].arrival;
  }

  // Integrity results dispatch by session id on every node.
  constexpr SessionId kIntegrityBase = 0x7f0000;
  std::map<SessionId, std::size_t> integrity_sessions;
  for (std::size_t n = 0; n < cluster.dla_count(); ++n) {
    cluster.dla(n).on_integrity_result =
        [&res, &integrity_sessions, t0, &cluster](SessionId session,
                                                  logm::Glsn, bool ok) {
          auto it = integrity_sessions.find(session);
          if (it == integrity_sessions.end()) return;
          OpRecord& rec = res.ops[it->second];
          rec.completed = cluster.sim().now() - t0;
          rec.done = true;
          rec.ok = ok;
        };
  }

  std::map<std::uint64_t, std::size_t> timer_to_op;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    timer_to_op[cluster.sim().set_timer(injector_id, ops[i].arrival)] = i;
  }
  std::uint64_t rewind_timer = 0;
  if (spec.inject_rewind && !ops.empty()) {
    rewind_timer = cluster.sim().set_timer(
        injector_id, ops[ops.size() / 2].arrival + 1);
  }

  std::size_t reissue_counter = 0;
  injector.fire = [&](net::Transport& sim, std::uint64_t timer_id) {
    if (timer_id == rewind_timer && rewind_timer != 0) {
      // Canary: rewinding every replica forces the sequencer to re-issue an
      // already-assigned glsn; the run's I1/I2 checks must catch it.
      logm::Glsn first = 0;
      for (const auto& g : res.preload) {
        if (g) { first = *g; break; }
      }
      if (first > 0) {
        for (std::size_t n = 0; n < cluster.dla_count(); ++n) {
          cluster.dla(n).debug_rewind_glsn(first - 1);
        }
      }
      return;
    }
    auto tit = timer_to_op.find(timer_id);
    if (tit == timer_to_op.end()) return;
    const std::size_t idx = tit->second;
    const GeneratedOp& op = ops[idx];
    OpRecord& rec = res.ops[idx];
    rec.issued = sim.now() - t0;

    UserNode& user = cluster.user(op.session);
    if (op.reissue_ticket) {
      Ticket fresh = cluster.issue_ticket(
          "TH" + std::to_string(op.session) + "g" +
              std::to_string(++reissue_counter),
          user.name(), {logm::Op::Read, logm::Op::Write},
          /*auditor=*/true);
      user.configure(cluster.config(), std::move(fresh));
    }

    auto stamp = [&rec, &cluster, t0]() {
      rec.completed = cluster.sim().now() - t0;
      rec.done = true;
    };
    switch (op.cls) {
      case OpClass::Write:
        user.log_record(sim, op.attrs,
                        [&rec, stamp](std::optional<logm::Glsn> g) {
                          stamp();
                          rec.ok = g.has_value();
                          rec.glsn = g;
                        });
        break;
      case OpClass::Query:
        user.query(sim, op.criterion, [&rec, stamp](QueryOutcome o) {
          stamp();
          rec.ok = o.ok;
          rec.certified = o.certified;
          rec.result = std::move(o.glsns);
        });
        break;
      case OpClass::Aggregate:
        user.aggregate_query(sim, op.criterion, op.agg_op, op.agg_attr,
                             [&rec, stamp](AggregateOutcome o) {
                               stamp();
                               rec.ok = o.ok;
                               rec.agg_value = o.value;
                               rec.agg_count = o.count;
                             });
        break;
      case OpClass::Delete: {
        const OpRecord& target = res.ops[op.target];
        if (!target.done || !target.ok || !target.glsn) {
          stamp();
          rec.skipped = true;
          break;
        }
        user.delete_record(sim, *target.glsn, [&rec, stamp](bool all_ok) {
          stamp();
          rec.ok = all_ok;
        });
        break;
      }
      case OpClass::Integrity: {
        if (op.target >= res.preload.size() || !res.preload[op.target]) {
          stamp();
          rec.skipped = true;
          break;
        }
        SessionId session = kIntegrityBase + idx;
        integrity_sessions[session] = idx;
        cluster.dla(idx % cluster.dla_count())
            .start_integrity_check(cluster.sim(), session,
                                   *res.preload[op.target]);
        break;
      }
    }
  };

  cluster.run();
  res.duration_us = cluster.sim().now() - t0;

  // Deterministic cleanup before the probe phase: detach chaos, recover
  // every node, heal any partition. (All scheduled windows are bounded to
  // the chaos horizon, but a run may drain before a recovery fires.)
  cluster.sim().set_chaos(nullptr);
  for (net::NodeId node : cluster.config()->dla_nodes) {
    cluster.sim().recover(node);
  }
  cluster.sim().heal_partition();
  if (chaos) res.chaos_counters = chaos_counters(cluster.sim());

  // ---- post-drain probe queries (closed loop, session 0) ----
  res.probes.resize(spec.criteria.size());
  for (std::size_t i = 0; i < spec.criteria.size(); ++i) {
    cluster.user(0).query(cluster.sim(), spec.criteria[i],
                          [&res, i](QueryOutcome o) {
                            res.probes[i] = std::move(o);
                          });
    cluster.run();
  }

  // ---- latency percentiles per class (completed, non-skipped ops) ----
  std::map<OpClass, std::vector<net::SimTime>> samples;
  for (const OpRecord& rec : res.ops) {
    if (rec.skipped) {
      ++res.skipped_ops;
      continue;
    }
    if (!rec.done) {
      ++res.failed_ops;
      continue;
    }
    ++res.completed_ops;
    samples[rec.cls].push_back(rec.completed - rec.scheduled);
  }
  for (auto& [cls, vec] : samples) {
    res.latency[cls] = latency_stats(std::move(vec));
  }
  const std::size_t countable = res.ops.size() - res.skipped_ops;
  res.completion_rate =
      countable == 0 ? 1.0
                     : static_cast<double>(res.completed_ops) /
                           static_cast<double>(countable);

  // ---- invariants over the full trace ----
  InvariantReport& report = res.invariants;

  // I1 over every assigned glsn (preload + open-loop writes).
  std::vector<logm::Glsn> assigned;
  for (const auto& g : res.preload) {
    if (g) assigned.push_back(*g);
  }
  std::vector<std::size_t> write_ops;
  for (std::size_t i = 0; i < res.ops.size(); ++i) {
    if (res.ops[i].cls != OpClass::Write) continue;
    write_ops.push_back(i);
    if (res.ops[i].glsn) assigned.push_back(*res.ops[i].glsn);
  }
  check_glsn_uniqueness(assigned, report);

  // I2 preload half: sequentially-issued preload glsns must be monotone.
  std::vector<logm::Glsn> preload_order;
  for (const auto& g : res.preload) {
    if (g) preload_order.push_back(*g);
  }
  check_glsn_monotonic(preload_order, report);
  // I2 open-loop half, generalized to real time: if write A completed
  // before write B arrived, A's glsn was assigned strictly first.
  for (std::size_t a : write_ops) {
    const OpRecord& ra = res.ops[a];
    if (!ra.done || !ra.glsn || ra.completed == 0) continue;
    for (std::size_t b : write_ops) {
      const OpRecord& rb = res.ops[b];
      if (!rb.glsn || ra.completed > rb.scheduled) continue;
      if (*ra.glsn >= *rb.glsn) {
        report.add("I2(real-time): write op " + std::to_string(a) +
                   " completed at " + std::to_string(ra.completed) +
                   "us with glsn " + std::to_string(*ra.glsn) +
                   " but op " + std::to_string(b) + " arriving later at " +
                   std::to_string(rb.scheduled) + "us got glsn " +
                   std::to_string(*rb.glsn));
      }
    }
  }

  // I3 quiescence: only meaningful when nothing may legitimately strand.
  if (!spec.lossy) check_session_quiescence(cluster, report);
  // I4 always: chaos must never move a column off its owner.
  check_column_confidentiality(cluster, report);

  // ---- I5: linearizability bounds per completed query + exact probes ----
  // Full-record mirror of everything ever written; criteria are evaluated
  // on it with the scan engine to get per-criterion match sets.
  logm::FragmentStore mirror;
  std::map<logm::Glsn, std::size_t> glsn_to_preload;
  std::map<logm::Glsn, std::size_t> glsn_to_write;
  for (std::size_t i = 0; i < res.preload.size(); ++i) {
    if (!res.preload[i]) continue;
    mirror.put(logm::Fragment{*res.preload[i], preload_records[i].attrs});
    glsn_to_preload[*res.preload[i]] = i;
  }
  for (std::size_t i : write_ops) {
    if (!res.ops[i].glsn) continue;
    mirror.put(logm::Fragment{*res.ops[i].glsn, ops[i].attrs});
    glsn_to_write[*res.ops[i].glsn] = i;
  }
  auto known = [&](logm::Glsn g) {
    return glsn_to_preload.count(g) != 0 || glsn_to_write.count(g) != 0;
  };

  std::map<std::string, std::vector<logm::Glsn>> match_cache;
  auto matches = [&](const std::string& criterion)
      -> const std::vector<logm::Glsn>& {
    auto it = match_cache.find(criterion);
    if (it == match_cache.end()) {
      Expr expr = parse(criterion, cluster.config()->schema);
      it = match_cache.emplace(criterion, eval_local_scan(expr, mirror))
               .first;
    }
    return it->second;
  };

  // Delete bookkeeping: target glsn -> delete op index.
  std::map<logm::Glsn, std::size_t> deletes_by_glsn;
  for (std::size_t i = 0; i < res.ops.size(); ++i) {
    const OpRecord& rec = res.ops[i];
    if (rec.cls != OpClass::Delete || rec.skipped) continue;
    const OpRecord& target = res.ops[ops[i].target];
    if (target.glsn) deletes_by_glsn[*target.glsn] = i;
  }

  for (std::size_t qi = 0; qi < res.ops.size(); ++qi) {
    const OpRecord& q = res.ops[qi];
    if (q.cls != OpClass::Query || !q.done || !q.ok) continue;
    std::set<logm::Glsn> result(q.result.begin(), q.result.end());
    const net::SimTime q_arr = q.scheduled;
    const net::SimTime q_end = q.completed;
    for (logm::Glsn g : matches(ops[qi].criterion)) {
      // Writer of g and its timeline.
      net::SimTime w_arr = 0, w_done = 0;
      std::size_t w_session = SIZE_MAX;
      if (auto pit = glsn_to_preload.find(g); pit != glsn_to_preload.end()) {
        w_arr = 0;  // preloaded before the phase
        w_done = 0;
        w_session = pit->second % spec.user_nodes;
      } else {
        const OpRecord& w = res.ops[glsn_to_write.at(g)];
        w_arr = w.scheduled;
        w_done = w.completed;
        w_session = w.session;
        if (!w.done || !w.ok) continue;  // fate unknown: no bound applies
      }
      const bool preloaded = glsn_to_preload.count(g) != 0;
      // Any delete racing or preceding the query?
      bool delete_touches = false;   // could have removed g by q's end
      bool deleted_same_session_before = false;
      if (auto dit = deletes_by_glsn.find(g); dit != deletes_by_glsn.end()) {
        const OpRecord& d = res.ops[dit->second];
        if (d.scheduled <= q_end || q_end == 0) delete_touches = true;
        if (d.done && d.ok && d.session == q.session &&
            d.completed <= q_arr) {
          deleted_same_session_before = true;
        }
      }
      // MUST include: same-session write completed before the query
      // arrived (session causality), no delete could have touched it.
      const bool must =
          !delete_touches &&
          (preloaded || (w_session == q.session && w_done != 0 &&
                         w_done <= q_arr));
      if (must && !result.contains(g)) {
        report.add("I5(must-include): query op " + std::to_string(qi) +
                   " '" + ops[qi].criterion + "' missing glsn " +
                   std::to_string(g) +
                   " whose write completed before the query arrived");
      }
      // MUST NOT include: the same session deleted it before asking.
      if (deleted_same_session_before && result.contains(g)) {
        report.add("I5(deleted): query op " + std::to_string(qi) +
                   " returned glsn " + std::to_string(g) +
                   " deleted by the same session before the query arrived");
      }
      // MAY bound: a result may not contain a matching record whose write
      // had not even arrived when the query completed.
      if (result.contains(g) && !preloaded && q_end != 0 && w_arr > q_end) {
        report.add("I5(may-include): query op " + std::to_string(qi) +
                   " returned glsn " + std::to_string(g) +
                   " whose write arrived only after the query completed");
      }
    }
    // Every returned glsn must be one this harness wrote (or preloaded) and
    // must match the criterion — a foreign/non-matching glsn is a real
    // result-integrity violation regardless of chaos tier.
    for (logm::Glsn g : q.result) {
      if (!known(g)) {
        if (!spec.lossy) {
          report.add("I5(unknown): query op " + std::to_string(qi) +
                     " returned unassigned glsn " + std::to_string(g));
        }
        continue;
      }
      const auto& m = matches(ops[qi].criterion);
      if (!std::binary_search(m.begin(), m.end(), g)) {
        report.add("I5(non-matching): query op " + std::to_string(qi) +
                   " returned glsn " + std::to_string(g) +
                   " that does not satisfy '" + ops[qi].criterion + "'");
      }
    }
    if (spec.certify_reports && !q.certified) {
      report.add("certification: completed query op " + std::to_string(qi) +
                 " was not certified");
    }
  }

  // Probe equality: post-drain the store is quiescent, so the result must
  // exactly equal the mirror minus completed deletes. Deletes that neither
  // completed nor provably failed leave their record ambiguous (lossy
  // only); ambiguous glsns are excluded from both sides.
  std::set<logm::Glsn> deleted_ok, ambiguous;
  for (const auto& [g, di] : deletes_by_glsn) {
    const OpRecord& d = res.ops[di];
    if (d.done && d.ok) {
      deleted_ok.insert(g);
    } else if (!d.done) {
      ambiguous.insert(g);
    }
    // done && !ok: uniformly refused at every node; the record survives.
  }
  for (std::size_t pi = 0; pi < res.probes.size(); ++pi) {
    const QueryOutcome& probe = res.probes[pi];
    if (!probe.ok) {
      report.add("probe '" + spec.criteria[pi] + "' failed: " + probe.error);
      continue;
    }
    if (spec.certify_reports && !probe.certified) {
      report.add("probe '" + spec.criteria[pi] + "' was not certified");
    }
    std::vector<logm::Glsn> expected;
    for (logm::Glsn g : matches(spec.criteria[pi])) {
      if (deleted_ok.contains(g) || ambiguous.contains(g)) continue;
      expected.push_back(g);
    }
    std::vector<logm::Glsn> actual;
    for (logm::Glsn g : probe.glsns) {
      if (ambiguous.contains(g)) continue;
      if (spec.lossy && !known(g)) continue;  // half-landed foreign write
      actual.push_back(g);
    }
    check_glsn_sets_equal("probe '" + spec.criteria[pi] + "'", expected,
                          actual, report);
  }

  // ---- Eq. 10-13 confidentiality over the generated workload ----
  const logm::Schema& schema = cluster.config()->schema;
  const logm::AttributePartition& partition = cluster.config()->partition;
  std::vector<logm::LogRecord> all_records;
  for (const auto& rec : preload_records) all_records.push_back(rec);
  for (std::size_t i : write_ops) {
    logm::LogRecord r;
    r.attrs = ops[i].attrs;
    all_records.push_back(std::move(r));
  }
  std::vector<std::vector<Subquery>> normalized;
  double c_aud_sum = 0.0;
  std::size_t c_aud_n = 0;
  for (std::size_t i = 0; i < res.ops.size(); ++i) {
    if (res.ops[i].cls != OpClass::Query &&
        res.ops[i].cls != OpClass::Aggregate) {
      continue;
    }
    normalized.push_back(normalize(ops[i].criterion, schema, partition));
    c_aud_sum += auditing_confidentiality(normalized.back());
    ++c_aud_n;
  }
  double c_store_sum = 0.0;
  for (const auto& rec : all_records) {
    c_store_sum += store_confidentiality(rec, schema, partition);
  }
  res.c_store = all_records.empty()
                    ? 0.0
                    : c_store_sum / static_cast<double>(all_records.size());
  res.c_auditing =
      c_aud_n == 0 ? 0.0 : c_aud_sum / static_cast<double>(c_aud_n);
  res.c_dla = dla_confidentiality(normalized, all_records, schema, partition);

  // ---- counter snapshots ----
  res.engine = query_engine_counters();
  res.rejects = wire_reject_counters();
  res.crypto_ops = crypto_op_counters();
  res.messages_sent = cluster.sim().stats().messages_sent;
  res.bytes_sent = cluster.sim().stats().bytes_sent;

  // Detach callbacks that reference stack state before teardown.
  for (std::size_t n = 0; n < cluster.dla_count(); ++n) {
    cluster.dla(n).on_integrity_result = nullptr;
  }
  cluster.sim().set_deliver_hook(nullptr);
  return res;
}

// ======================================================= pair agreement ====
std::string PairReport::summary() const {
  if (violations.empty()) return "pair agrees on every certified result";
  std::ostringstream out;
  for (const auto& v : violations) out << v << "\n";
  return out.str();
}

namespace {

// Map a run's glsn to its op-stream identity ("p<i>" preload, "w<i>" open
// write) so results are comparable across runs whose assigned glsn values
// legitimately differ.
std::map<logm::Glsn, std::string> identity_map(const RunResult& run) {
  std::map<logm::Glsn, std::string> out;
  for (std::size_t i = 0; i < run.preload.size(); ++i) {
    if (run.preload[i]) out[*run.preload[i]] = "p" + std::to_string(i);
  }
  for (std::size_t i = 0; i < run.ops.size(); ++i) {
    if (run.ops[i].cls == OpClass::Write && run.ops[i].glsn) {
      out[*run.ops[i].glsn] = "w" + std::to_string(i);
    }
  }
  return out;
}

std::vector<std::string> mapped_result(
    const std::vector<logm::Glsn>& glsns,
    const std::map<logm::Glsn, std::string>& ids, bool drop_unknown) {
  std::vector<std::string> out;
  for (logm::Glsn g : glsns) {
    auto it = ids.find(g);
    if (it == ids.end()) {
      if (!drop_unknown) out.push_back("?" + std::to_string(g));
      continue;
    }
    out.push_back(it->second);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string join(const std::vector<std::string>& items) {
  std::string out;
  for (const auto& s : items) {
    if (!out.empty()) out += ",";
    out += s;
  }
  return out.empty() ? "(empty)" : out;
}

}  // namespace

PairReport compare_runs(const ScenarioSpec& spec, const RunResult& fault_free,
                        const RunResult& chaotic) {
  PairReport pair;
  if (fault_free.ops.size() != chaotic.ops.size()) {
    pair.violations.push_back("op stream size mismatch: " +
                              std::to_string(fault_free.ops.size()) + " vs " +
                              std::to_string(chaotic.ops.size()));
    return pair;
  }
  const auto ids_a = identity_map(fault_free);
  const auto ids_b = identity_map(chaotic);

  for (std::size_t i = 0; i < fault_free.ops.size(); ++i) {
    const OpRecord& a = fault_free.ops[i];
    const OpRecord& b = chaotic.ops[i];
    if (a.cls != b.cls) {
      pair.violations.push_back("op " + std::to_string(i) +
                                " class mismatch (stream not deterministic)");
      continue;
    }
    if (!spec.lossy) {
      // Benign chaos must not change any op's fate.
      if (a.done != b.done || a.ok != b.ok || a.skipped != b.skipped) {
        pair.violations.push_back(
            "op " + std::to_string(i) + " (" +
            std::string(to_string(a.cls)) + ") fate diverged: fault-free " +
            (a.done ? (a.ok ? "ok" : "failed") : "incomplete") +
            " vs chaos " + (b.done ? (b.ok ? "ok" : "failed") : "incomplete"));
        continue;
      }
    }
    if (a.cls == OpClass::Query && a.done && a.ok && b.done && b.ok &&
        quiescent_in(fault_free, i) && quiescent_in(chaotic, i)) {
      auto ra = mapped_result(a.result, ids_a, spec.lossy);
      auto rb = mapped_result(b.result, ids_b, spec.lossy);
      if (spec.lossy) {
        // Under loss a write may exist in one run only; compare on the
        // records both runs know completed.
        std::set<std::string> in_a(ra.begin(), ra.end());
        std::set<std::string> in_b(rb.begin(), rb.end());
        auto completed_both = [&](const std::string& token) {
          if (token.empty()) return true;
          std::size_t idx = static_cast<std::size_t>(
              std::stoul(token.substr(1)));
          if (token[0] == 'w') {
            return fault_free.ops[idx].ok && chaotic.ops[idx].ok;
          }
          if (token[0] == 'p') {  // preload may be lost under lossy chaos
            return fault_free.preload[idx].has_value() &&
                   chaotic.preload[idx].has_value();
          }
          return true;
        };
        ra.erase(std::remove_if(ra.begin(), ra.end(),
                                [&](const std::string& t) {
                                  return !completed_both(t);
                                }),
                 ra.end());
        rb.erase(std::remove_if(rb.begin(), rb.end(),
                                [&](const std::string& t) {
                                  return !completed_both(t);
                                }),
                 rb.end());
      }
      if (ra != rb) {
        pair.violations.push_back("certified query op " + std::to_string(i) +
                                  " diverged: fault-free {" + join(ra) +
                                  "} vs chaos {" + join(rb) + "}");
      }
      if (spec.certify_reports && (!a.certified || !b.certified)) {
        pair.violations.push_back("query op " + std::to_string(i) +
                                  " not certified in both runs");
      }
    }
    if (!spec.lossy && a.cls == OpClass::Aggregate && a.done && a.ok &&
        b.done && b.ok && quiescent_in(fault_free, i) &&
        quiescent_in(chaotic, i)) {
      if (a.agg_value != b.agg_value || a.agg_count != b.agg_count) {
        pair.violations.push_back(
            "aggregate op " + std::to_string(i) + " diverged: " +
            std::to_string(a.agg_value) + "/" + std::to_string(a.agg_count) +
            " vs " + std::to_string(b.agg_value) + "/" +
            std::to_string(b.agg_count));
      }
    }
  }

  // Post-drain probes: the store is quiescent, so probe results must agree
  // on every record whose fate both runs know.
  if (fault_free.probes.size() != chaotic.probes.size()) {
    pair.violations.push_back("probe count mismatch");
  } else {
    for (std::size_t i = 0; i < fault_free.probes.size(); ++i) {
      const QueryOutcome& a = fault_free.probes[i];
      const QueryOutcome& b = chaotic.probes[i];
      if (!a.ok || !b.ok) {
        pair.violations.push_back("probe " + std::to_string(i) +
                                  " did not complete in both runs");
        continue;
      }
      if (spec.certify_reports && (!a.certified || !b.certified)) {
        pair.violations.push_back("probe " + std::to_string(i) +
                                  " not certified in both runs");
      }
      if (spec.lossy) continue;  // per-run mirror checks cover lossy probes
      auto ra = mapped_result(a.glsns, ids_a, false);
      auto rb = mapped_result(b.glsns, ids_b, false);
      if (ra != rb) {
        pair.violations.push_back("probe " + std::to_string(i) +
                                  " diverged: fault-free {" + join(ra) +
                                  "} vs chaos {" + join(rb) + "}");
      }
    }
  }

  // The op stream (and with it the Eq. 10-13 inputs) is chaos-independent,
  // so the confidentiality metrics must agree bit-for-bit.
  if (fault_free.c_store != chaotic.c_store ||
      fault_free.c_auditing != chaotic.c_auditing ||
      fault_free.c_dla != chaotic.c_dla) {
    pair.violations.push_back("confidentiality metrics diverged across pair");
  }
  return pair;
}

}  // namespace dla::audit
