#include "audit/user_node.hpp"

#include "audit/metrics.hpp"

namespace dla::audit {

UserNode::UserNode(std::string name) : name_(std::move(name)) {}

void UserNode::configure(ConfigPtr cfg, Ticket ticket) {
  cfg_ = std::move(cfg);
  ticket_ = std::move(ticket);
  accum_stepper_.emplace(cfg_->accum_params, cfg_->cluster_size());
}

net::NodeId UserNode::pick_gateway() {
  if (pinned_gateway_.has_value()) {
    return cfg_->dla_nodes.at(*pinned_gateway_);
  }
  net::NodeId gw = cfg_->dla_nodes[gateway_rr_ % cfg_->dla_nodes.size()];
  ++gateway_rr_;
  return gw;
}

void UserNode::log_record(net::Transport& sim,
                          std::map<std::string, logm::Value> attrs,
                          LogCallback done) {
  std::uint64_t reqid = next_reqid_++;
  PendingLog pending;
  pending.attrs = std::move(attrs);
  pending.done = std::move(done);
  pending_logs_[reqid] = std::move(pending);

  net::Writer w;
  w.u64(reqid);
  ticket_.encode(w);
  sim.send(id(), pick_gateway(), kGlsnRequest, std::move(w).take());
}

void UserNode::handle_glsn_reply(net::Transport& sim,
                                 const net::Message& msg) {
  net::Reader r(msg.payload);
  std::uint64_t reqid = r.u64();
  logm::Glsn glsn = r.u64();
  r.expect_end();
  auto it = pending_logs_.find(reqid);
  if (it == pending_logs_.end()) return;
  PendingLog& pending = it->second;
  if (glsn == 0) {
    // Cluster refused the write (bad ticket).
    if (pending.done) pending.done(std::nullopt);
    pending_logs_.erase(it);
    return;
  }
  // Duplicate reply for a request whose fragments are already in flight:
  // re-sending them would double every upload and ack.
  if (pending.glsn != 0) return;
  pending.glsn = glsn;
  glsn_to_reqid_[glsn] = reqid;

  // Fragment the record per the cluster's attribute partition and ship
  // fragment i to P_i. Each upload carries the accumulator digest, and the
  // partition yields one fragment per node (empty ones included), so every
  // node gets the deposit and any of them can later initiate the integrity
  // circulation.
  logm::LogRecord record;
  record.glsn = glsn;
  record.attrs = pending.attrs;
  auto fragments = cfg_->partition.fragment(record);
  std::vector<std::string> items;
  items.reserve(fragments.size());
  for (const auto& frag : fragments) items.push_back(frag.canonical());
  const bn::BigUInt deposit = accum_stepper_->deposit(items);

  // Fragment i goes to its primary P_i plus the next replication-1 ring
  // successors (replica copies keep queries available across a crash).
  const std::size_t copies = std::max<std::size_t>(1, cfg_->replication);
  for (std::size_t i = 0; i < fragments.size(); ++i) {
    for (std::size_t r = 0; r < copies; ++r) {
      net::Writer w;
      ticket_.encode(w);
      w.boolean(r > 0);  // is_replica
      fragments[i].encode(w);
      // Copy sequence number, echoed in the ack for duplicate detection.
      w.u32(static_cast<std::uint32_t>(i * copies + r));
      w.big(deposit);
      sim.send(id(), cfg_->dla_nodes[(i + r) % cfg_->cluster_size()],
               kLogFragment, std::move(w).take());
    }
  }
}

void UserNode::handle_log_ack(net::Transport&, const net::Message& msg) {
  net::Reader r(msg.payload);
  logm::Glsn glsn = r.u64();
  bool ok = r.boolean();
  std::uint32_t copy_seq = r.u32();
  r.expect_end();
  auto rit = glsn_to_reqid_.find(glsn);
  if (rit == glsn_to_reqid_.end()) return;
  auto it = pending_logs_.find(rit->second);
  if (it == pending_logs_.end()) return;
  PendingLog& pending = it->second;
  if (!pending.ack_from.insert({msg.src, copy_seq}).second) {
    return;  // duplicated ack for a copy already counted
  }
  if (!ok) pending.failed = true;
  const std::size_t expected =
      cfg_->cluster_size() * std::max<std::size_t>(1, cfg_->replication);
  if (pending.ack_from.size() < expected) return;
  if (pending.done) {
    pending.done(pending.failed ? std::nullopt
                                : std::optional<logm::Glsn>(glsn));
  }
  glsn_to_reqid_.erase(rit);
  pending_logs_.erase(it);
}

void UserNode::query(net::Transport& sim, std::string criterion,
                     QueryCallback done) {
  std::uint64_t reqid = next_reqid_++;
  pending_queries_[reqid] = std::move(done);
  net::Writer w;
  w.u64(reqid);
  ticket_.encode(w);
  w.str(criterion);
  sim.send(id(), pick_gateway(), kAuditQuery, std::move(w).take());
}

void UserNode::handle_audit_result(net::Transport&, const net::Message& msg) {
  net::Reader r(msg.payload);
  std::uint64_t reqid = r.u64();
  QueryOutcome outcome;
  outcome.ok = r.boolean();
  outcome.error = r.str();
  outcome.glsns = r.vec<logm::Glsn>([](net::Reader& in) { return in.u64(); });
  if (r.boolean()) {
    // Verify the cluster's threshold co-signature over (reqid, glsns).
    crypto::ThresholdSignature sig{r.big(), r.big()};
    outcome.certified =
        cfg_->threshold_params.has_value() &&
        crypto::verify_threshold(*cfg_->threshold_params,
                                 report_message(reqid, outcome.glsns), sig);
  }
  r.expect_end();
  auto it = pending_queries_.find(reqid);
  if (it == pending_queries_.end()) return;
  QueryCallback done = std::move(it->second);
  pending_queries_.erase(it);
  if (done) done(std::move(outcome));
}

void UserNode::aggregate_query(net::Transport& sim, std::string criterion,
                               AggOp op, std::string attr,
                               AggregateCallback done) {
  std::uint64_t reqid = next_reqid_++;
  pending_aggregates_[reqid] = std::move(done);
  net::Writer w;
  w.u64(reqid);
  ticket_.encode(w);
  w.str(criterion);
  w.u8(static_cast<std::uint8_t>(op));
  w.str(attr);
  sim.send(id(), pick_gateway(), kAggregateQuery, std::move(w).take());
}

void UserNode::handle_aggregate_result(net::Transport&,
                                       const net::Message& msg) {
  net::Reader r(msg.payload);
  std::uint64_t reqid = r.u64();
  AggregateOutcome outcome;
  outcome.ok = r.boolean();
  outcome.error = r.str();
  outcome.value = r.f64();
  outcome.count = r.u64();
  r.expect_end();
  auto it = pending_aggregates_.find(reqid);
  if (it == pending_aggregates_.end()) return;
  AggregateCallback done = std::move(it->second);
  pending_aggregates_.erase(it);
  if (done) done(std::move(outcome));
}

void UserNode::fetch_fragment(net::Transport& sim, std::size_t node_index,
                              logm::Glsn glsn, FetchCallback done) {
  std::uint64_t reqid = next_reqid_++;
  pending_fetches_[reqid] = std::move(done);
  net::Writer w;
  w.u64(reqid);
  ticket_.encode(w);
  w.u64(glsn);
  sim.send(id(), cfg_->dla_nodes.at(node_index), kFragmentRequest,
           std::move(w).take());
}

void UserNode::handle_fragment_reply(net::Transport&,
                                     const net::Message& msg) {
  net::Reader r(msg.payload);
  std::uint64_t reqid = r.u64();
  r.u64();  // glsn
  bool ok = r.boolean();
  std::optional<logm::Fragment> fragment;
  if (ok) fragment = logm::Fragment::decode(r);
  r.expect_end();
  auto it = pending_fetches_.find(reqid);
  if (it == pending_fetches_.end()) return;
  FetchCallback done = std::move(it->second);
  pending_fetches_.erase(it);
  if (done) done(std::move(fragment));
}

void UserNode::fetch_record(net::Transport& sim, logm::Glsn glsn,
                            RecordCallback done) {
  // Fan out one fragment fetch per node and assemble client-side.
  auto record = std::make_shared<logm::LogRecord>();
  record->glsn = glsn;
  auto remaining = std::make_shared<std::size_t>(cfg_->cluster_size());
  auto failed = std::make_shared<bool>(false);
  auto finish = std::make_shared<RecordCallback>(std::move(done));
  for (std::size_t i = 0; i < cfg_->cluster_size(); ++i) {
    fetch_fragment(sim, i, glsn,
                   [record, remaining, failed,
                    finish](std::optional<logm::Fragment> fragment) {
                     if (!fragment.has_value()) {
                       *failed = true;
                     } else {
                       for (auto& [name, value] : fragment->attrs) {
                         record->attrs.emplace(name, std::move(value));
                       }
                     }
                     if (--*remaining > 0) return;
                     if (*finish) {
                       (*finish)(*failed ? std::nullopt
                                         : std::optional<logm::LogRecord>(
                                               std::move(*record)));
                     }
                   });
  }
}

void UserNode::delete_record(net::Transport& sim, logm::Glsn glsn,
                             DeleteCallback done) {
  std::uint64_t reqid = next_reqid_++;
  pending_deletes_[reqid] = PendingDelete{std::move(done), {}, true};
  for (net::NodeId node : cfg_->dla_nodes) {
    net::Writer w;
    w.u64(reqid);
    ticket_.encode(w);
    w.u64(glsn);
    sim.send(id(), node, kFragmentDelete, std::move(w).take());
  }
}

void UserNode::handle_delete_reply(net::Transport&, const net::Message& msg) {
  net::Reader r(msg.payload);
  std::uint64_t reqid = r.u64();
  r.u64();  // glsn
  bool ok = r.boolean();
  r.expect_end();
  auto it = pending_deletes_.find(reqid);
  if (it == pending_deletes_.end()) return;
  PendingDelete& pending = it->second;
  if (!pending.responders.insert(msg.src).second) return;  // duplicate reply
  pending.all_ok = pending.all_ok && ok;
  if (pending.responders.size() < cfg_->cluster_size()) return;
  DeleteCallback done = std::move(pending.done);
  bool all_ok = pending.all_ok;
  pending_deletes_.erase(it);
  if (done) done(all_ok);
}

void UserNode::on_message(net::Transport& sim, const net::Message& msg) {
  try {
    switch (msg.type) {
      case kGlsnReply: return handle_glsn_reply(sim, msg);
      case kLogAck: return handle_log_ack(sim, msg);
      case kAuditResult: return handle_audit_result(sim, msg);
      case kFragmentReply: return handle_fragment_reply(sim, msg);
      case kDeleteReply: return handle_delete_reply(sim, msg);
      case kAggregateResult: return handle_aggregate_result(sim, msg);
      // Application node: it only consumes the six reply types above, and
      // cluster-internal protocol traffic is never addressed to users.
      // DLA-LINT-ALLOW(msgtype-switch): application node, reply subset only
      default:
        break;
    }
  } catch (const net::CodecError&) {
    // Drop malformed replies; a misbehaving cluster node must not be able
    // to crash an application node.
    ++detail::wire_reject_counters_mut().codec_rejects;
  }
}

}  // namespace dla::audit
