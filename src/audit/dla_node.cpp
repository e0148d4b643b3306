#include "audit/dla_node.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "audit/local_query.hpp"
#include "audit/metrics.hpp"
#include "crypto/sha256.hpp"
#include "logm/set_algebra.hpp"

namespace dla::audit {

namespace {

// Gateway timeout before retrying a glsn request against the next leader.
constexpr net::SimTime kGlsnTimeout = 50000;  // 50 ms
// Watchdog for a whole query pipeline: generous against jitter, small
// enough that a partition-stalled query fails back to the user promptly.
constexpr net::SimTime kQueryTimeout = 5000000;  // 5 s

void send_payload(net::Transport& sim, net::NodeId src, net::NodeId dst,
                  std::uint32_t type, net::Writer w) {
  sim.send(src, dst, type, std::move(w).take());
}

// Order-preserving integer key for numeric attribute values: scaled by 1e6
// and offset by 2^62 into the positive range. Used by the blind-TTP join
// transform.
bn::BigUInt order_key(const logm::Value& value) {
  std::int64_t scaled = std::llround(value.as_real() * 1e6);
  return bn::BigUInt(static_cast<std::uint64_t>(scaled) +
                     (std::uint64_t{1} << 62));
}

bn::BigUInt hash_key(const logm::Value& value, const bn::BigUInt& p) {
  crypto::Digest d = crypto::Sha256::hash(value.canonical());
  return bn::BigUInt::from_bytes({d.begin(), d.end()}) % p;
}

void sort_unique(std::vector<bn::BigUInt>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

void sort_unique(std::vector<logm::Glsn>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

}  // namespace

DlaNode::DlaNode(std::string name, std::uint64_t seed)
    : name_(std::move(name)), rng_(seed) {}

void DlaNode::configure(ConfigPtr cfg, std::size_t index) {
  cfg_ = std::move(cfg);
  index_ = index;
  tickets_.emplace(cfg_->ticket_key);
  accum_stepper_.emplace(cfg_->accum_params);
}

SessionId DlaNode::fresh_session() {
  return (static_cast<SessionId>(id()) << 40) | next_session_++;
}

// ======================================================== dispatch =========

void DlaNode::on_message(net::Transport& sim, const net::Message& msg) {
  try {
    dispatch(sim, msg);
  } catch (const net::TrailingBytesError&) {
    // The payload decoded, but bytes were left over (Reader::expect_end in
    // every handler): trailing garbage is rejected, not silently carried.
    auto& ctr = detail::wire_reject_counters_mut();
    ++ctr.trailing_rejects;
  } catch (const net::CodecError&) {
    // Malformed or truncated payloads are dropped rather than crashing the
    // node — a remote peer must not be able to take a DLA node down with a
    // bad message.
    auto& ctr = detail::wire_reject_counters_mut();
    ++ctr.codec_rejects;
  } catch (const ParseError&) {
    // Likewise for an unparseable criterion smuggled into an internal task
    // message (the gateway validates user queries before planning).
    auto& ctr = detail::wire_reject_counters_mut();
    ++ctr.parse_rejects;
  }
}

void DlaNode::dispatch(net::Transport& sim, const net::Message& msg) {
  switch (msg.type) {
    case kHeartbeat: {
      net::Reader r(msg.payload);
      std::uint32_t peer = r.u32();
      r.expect_end();
      last_heartbeat_[peer] = sim.now();
      return;
    }
    case kGlsnRequest: return handle_glsn_request(sim, msg);
    case kGlsnForward: return handle_glsn_forward(sim, msg);
    case kGlsnPropose: return handle_glsn_propose(sim, msg);
    case kGlsnVote: return handle_glsn_vote(sim, msg);
    case kGlsnCommit: return handle_glsn_commit(sim, msg);
    case kGlsnReply: return handle_glsn_reply(sim, msg);
    case kLogFragment: return handle_log_fragment(sim, msg);
    case kAccumDeposit: return handle_accum_deposit(sim, msg);
    case kFragmentRequest: return handle_fragment_request(sim, msg);
    case kFragmentDelete: return handle_fragment_delete(sim, msg);
    case kSetStart: return handle_set_start(sim, msg);
    case kSetRing: return handle_set_ring(sim, msg);
    case kSetFull: return handle_set_full(sim, msg);
    case kSetDecrypt: return handle_set_decrypt(sim, msg);
    case kSetResult: return handle_set_result(sim, msg);
    case kSumStart: return handle_sum_start(sim, msg);
    case kSumShare: return handle_sum_share(sim, msg);
    case kSumEval: return handle_sum_eval(sim, msg);
    case kSumResult: return handle_sum_result(sim, msg);
    case kCmpParams: return handle_cmp_params(sim, msg);
    case kScalarRandomness: return handle_scalar_randomness(sim, msg);
    case kScalarMaskedA: return handle_scalar_masked_a(sim, msg);
    case kScalarReply: return handle_scalar_reply(sim, msg);
    case kScalarResult: return handle_scalar_result(sim, msg);
    case kCmpResult: return handle_cmp_result(sim, msg);
    case kRankResult: return handle_rank_result(sim, msg);
    case kIntegrityPass: return handle_integrity_pass(sim, msg);
    case kAuditQuery: return handle_audit_query(sim, msg);
    case kAggregateQuery: return handle_aggregate_query(sim, msg);
    case kAggregateExec: return handle_aggregate_exec(sim, msg);
    case kAggregateValue: return handle_aggregate_value(sim, msg);
    case kDkgStart: return handle_dkg_start(sim, msg);
    case kDkgCommit: return handle_dkg_commit(sim, msg);
    case kDkgShare: return handle_dkg_share(sim, msg);
    case kSignRequest: return handle_sign_request(sim, msg);
    case kSignNonce: return handle_sign_nonce(sim, msg);
    case kSignChallenge: return handle_sign_challenge(sim, msg);
    case kSignShare: return handle_sign_share(sim, msg);
    case kSubqueryExec: return handle_subquery_exec(sim, msg);
    case kJoinExec: return handle_join_exec(sim, msg);
    case kCombineExec: return handle_combine_exec(sim, msg);
    case kCombineReady: return handle_combine_ready(sim, msg);
    case kSubqueryDone: return handle_subquery_done(sim, msg);
    case kCmpBatchResult: return handle_cmp_batch_result(sim, msg);
    case kSubqueryFetch: return handle_subquery_fetch(sim, msg);
    case kSubqueryData: return handle_subquery_data(sim, msg);
    // Deliberately ignored: application-side replies (a cluster node is
    // never the addressee of its own acks/results) and the evidence-chain
    // membership handshake, which MemberNode/CertAuthority actors run.
    // Every MsgType must appear here explicitly — dla_lint's msgtype-switch
    // rule bans a silent `default:` so that a newly added message type fails
    // lint until each dispatch decides to handle or ignore it. Raw u32
    // values outside the enum fall through the switch and are dropped
    // (forward compatibility).
    case kLogAck:
    case kFragmentReply:
    case kDeleteReply:
    case kCmpSpec:
    case kCmpValue:
    case kCmpBatch:
    case kAuditResult:
    case kAggregateResult:
    case kScalarInit:
    case kTokenRequest:
    case kTokenReply:
    case kPolicyProposal:
    case kServiceCommitment:
    case kEvidenceGrant:
    case kLedgerAppend:
    case kLedgerTailsRequest:
    case kLedgerTailsReply:
      break;
  }
}

void DlaNode::enable_periodic_audit(net::Transport& sim,
                                    net::SimTime interval) {
  periodic_interval_ = interval;
  periodic_timer_ = sim.set_timer(id(), interval);
}

void DlaNode::start_heartbeats(net::Transport& sim) {
  if (cfg_->heartbeat_interval == 0) return;
  heartbeats_on_ = true;
  // Mark every peer fresh so nobody starts out suspected.
  for (std::size_t i = 0; i < cfg_->cluster_size(); ++i) {
    last_heartbeat_[i] = sim.now();
  }
  heartbeat_timer_ = sim.set_timer(id(), cfg_->heartbeat_interval);
}

bool DlaNode::suspects(std::size_t peer_index, net::SimTime now) const {
  if (!heartbeats_on_ || peer_index == index_) return false;
  auto it = last_heartbeat_.find(peer_index);
  if (it == last_heartbeat_.end()) return false;
  return now - it->second > 3 * cfg_->heartbeat_interval;
}

void DlaNode::on_timer(net::Transport& sim, std::uint64_t timer_id) {
  if (timer_id == heartbeat_timer_ && heartbeats_on_) {
    for (std::size_t i = 0; i < cfg_->cluster_size(); ++i) {
      if (i == index_) continue;
      net::Writer w;
      w.u32(static_cast<std::uint32_t>(index_));
      send_payload(sim, id(), cfg_->dla_nodes[i], kHeartbeat, std::move(w));
    }
    heartbeat_timer_ = sim.set_timer(id(), cfg_->heartbeat_interval);
    return;
  }
  if (timer_id == periodic_timer_ && periodic_interval_ != 0) {
    // Audit the next stored glsn in rotation, then re-arm.
    auto glsns = engine_->glsns();
    if (!glsns.empty()) {
      auto it = std::upper_bound(glsns.begin(), glsns.end(), periodic_cursor_);
      logm::Glsn target = it == glsns.end() ? glsns.front() : *it;
      periodic_cursor_ = target;
      start_integrity_check(sim, fresh_session(), target);
    }
    periodic_timer_ = sim.set_timer(id(), periodic_interval_);
    return;
  }
  if (auto qt = timer_to_qid_.find(timer_id); qt != timer_to_qid_.end()) {
    std::uint64_t qid = qt->second;
    timer_to_qid_.erase(qt);
    auto query = queries_.find(qid);
    if (query != queries_.end()) {
      fail_query(sim, query->second, "query timed out");
    }
    return;
  }
  auto it = timer_to_gid_.find(timer_id);
  if (it == timer_to_gid_.end()) return;
  std::uint64_t gid = it->second;
  timer_to_gid_.erase(it);
  auto pending = pending_glsn_.find(gid);
  if (pending == pending_glsn_.end() || pending->second.done) return;
  // Leader unresponsive: retry against the next cluster member.
  pending->second.leader_attempt =
      (pending->second.leader_attempt + 1) % cfg_->cluster_size();
  net::NodeId leader = cfg_->dla_nodes[pending->second.leader_attempt];
  net::Writer w;
  w.u64(gid);
  w.u32(pending->second.user);
  w.u32(id());
  send_payload(sim, id(), leader, kGlsnForward, std::move(w));
  pending->second.timer = sim.set_timer(id(), kGlsnTimeout);
  timer_to_gid_[pending->second.timer] = gid;
}

// ==================================================== glsn sequencing ======

void DlaNode::handle_glsn_request(net::Transport& sim,
                                  const net::Message& msg) {
  net::Reader r(msg.payload);
  std::uint64_t reqid = r.u64();
  Ticket ticket = Ticket::decode(r);
  r.expect_end();
  if (!tickets_->authorizes(ticket, logm::Op::Write, sim.now())) {
    net::Writer w;
    w.u64(reqid);
    w.u64(0);  // glsn 0 = refused
    send_payload(sim, id(), msg.src, kGlsnReply, std::move(w));
    return;
  }
  // At-least-once dedup: a duplicated request must not consume a second
  // sequence number. In flight -> drop (the original reply is coming);
  // already served -> replay the remembered reply.
  const std::pair<net::NodeId, std::uint64_t> journal_key{msg.src, reqid};
  if (const GlsnServed* served = glsn_request_journal_.find(journal_key)) {
    ++replay_drops_;
    if (served->done) {
      net::Writer w;
      w.u64(reqid);
      w.u64(served->glsn);
      send_payload(sim, id(), msg.src, kGlsnReply, std::move(w));
    }
    return;
  }
  std::uint64_t gid = (static_cast<std::uint64_t>(id()) << 40) | next_gid_++;
  glsn_request_journal_.insert(journal_key, GlsnServed{gid, 0, false});
  PendingGlsn pending;
  pending.user = msg.src;
  pending.user_reqid = reqid;
  pending.leader_attempt = 0;
  pending_glsn_[gid] = pending;
  net::Writer w;
  w.u64(gid);
  w.u32(msg.src);
  w.u32(id());
  send_payload(sim, id(), cfg_->dla_nodes[0], kGlsnForward, std::move(w));
  auto timer = sim.set_timer(id(), kGlsnTimeout);
  pending_glsn_[gid].timer = timer;
  timer_to_gid_[timer] = gid;
}

void DlaNode::handle_glsn_forward(net::Transport& sim,
                                  const net::Message& msg) {
  net::Reader r(msg.payload);
  std::uint64_t reqid = r.u64();
  r.u32();  // user id (carried for diagnostics; reply goes via gateway)
  net::NodeId gateway = r.u32();
  r.expect_end();

  // At-least-once dedup: a round is already open (drop the duplicate) or
  // was already committed (replay the remembered reply to the gateway).
  if (forwards_in_flight_.contains(reqid)) {
    ++replay_drops_;
    return;
  }
  if (const logm::Glsn* glsn = forward_journal_.find(reqid)) {
    ++replay_drops_;
    net::Writer w;
    w.u64(reqid);
    w.u64(*glsn);
    send_payload(sim, id(), gateway, kGlsnReply, std::move(w));
    return;
  }
  forwards_in_flight_.insert(reqid);

  // Act as leader: propose counter+1 to every replica.
  logm::Glsn proposal = std::max(glsn_counter_, last_promised_) + 1;
  std::uint64_t proposal_id =
      (static_cast<std::uint64_t>(id()) << 40) | next_proposal_id_++;
  GlsnRound round;
  round.proposal = proposal;
  round.reply_to = gateway;
  round.reqid = reqid;
  glsn_rounds_[proposal_id] = round;
  for (net::NodeId replica : cfg_->dla_nodes) {
    net::Writer w;
    w.u64(proposal_id);
    w.u64(proposal);
    send_payload(sim, id(), replica, kGlsnPropose, std::move(w));
  }
}

void DlaNode::handle_glsn_propose(net::Transport& sim,
                                  const net::Message& msg) {
  net::Reader r(msg.payload);
  std::uint64_t proposal_id = r.u64();
  logm::Glsn glsn = r.u64();
  r.expect_end();
  bool accept;
  if (const bool* vote = propose_journal_.find(proposal_id)) {
    // Duplicate delivery: replay the vote already cast for this proposal.
    accept = *vote;
    ++replay_drops_;
  } else {
    accept = glsn > last_promised_;
    if (accept) last_promised_ = glsn;
    propose_journal_.insert(proposal_id, accept);
  }
  net::Writer w;
  w.u64(proposal_id);
  w.boolean(accept);
  w.u64(last_promised_);
  send_payload(sim, id(), msg.src, kGlsnVote, std::move(w));
}

void DlaNode::handle_glsn_vote(net::Transport& sim, const net::Message& msg) {
  net::Reader r(msg.payload);
  std::uint64_t proposal_id = r.u64();
  bool accept = r.boolean();
  logm::Glsn hint = r.u64();
  r.expect_end();
  auto it = glsn_rounds_.find(proposal_id);
  if (it == glsn_rounds_.end() || it->second.done) return;
  GlsnRound& round = it->second;
  if (!round.voters.insert(msg.src).second) {
    ++replay_drops_;  // duplicate vote from the same replica
    return;
  }
  if (accept) {
    ++round.accepts;
  } else {
    ++round.rejects;
    round.highest_hint = std::max(round.highest_hint, hint);
  }
  if (round.accepts >= cfg_->majority()) {
    glsn_counter_ = std::max(glsn_counter_, round.proposal);
    forwards_in_flight_.erase(round.reqid);
    forward_journal_.insert(round.reqid, round.proposal);
    for (net::NodeId replica : cfg_->dla_nodes) {
      net::Writer w;
      w.u64(round.proposal);
      send_payload(sim, id(), replica, kGlsnCommit, std::move(w));
    }
    net::Writer w;
    w.u64(round.reqid);
    w.u64(round.proposal);
    send_payload(sim, id(), round.reply_to, kGlsnReply, std::move(w));
    // Round closed: erase instead of flagging done, so a quiesced node
    // holds no sequencing residue (late votes simply find no round).
    glsn_rounds_.erase(it);
  } else if (round.rejects >= cfg_->majority() ||
             round.voters.size() >= cfg_->cluster_size()) {
    // Contention (reject majority), or every replica answered without a
    // majority either way (split vote under concurrent leaders): retry
    // with a proposal above every hint we saw instead of wedging the round.
    logm::Glsn retry = std::max(round.highest_hint, round.proposal) + 1;
    net::NodeId reply_to = round.reply_to;
    std::uint64_t reqid = round.reqid;
    glsn_rounds_.erase(it);
    std::uint64_t new_id =
        (static_cast<std::uint64_t>(id()) << 40) | next_proposal_id_++;
    GlsnRound fresh;
    fresh.proposal = retry;
    fresh.reply_to = reply_to;
    fresh.reqid = reqid;
    glsn_rounds_[new_id] = fresh;
    for (net::NodeId replica : cfg_->dla_nodes) {
      net::Writer w;
      w.u64(new_id);
      w.u64(retry);
      send_payload(sim, id(), replica, kGlsnPropose, std::move(w));
    }
  }
}

void DlaNode::handle_glsn_commit(net::Transport&, const net::Message& msg) {
  net::Reader r(msg.payload);
  logm::Glsn glsn = r.u64();
  r.expect_end();
  glsn_counter_ = std::max(glsn_counter_, glsn);
}

void DlaNode::handle_glsn_reply(net::Transport& sim, const net::Message& msg) {
  // Gateway leg: relay the assigned glsn to the waiting user, translating
  // the gateway-local id back into the user's own request id.
  net::Reader r(msg.payload);
  std::uint64_t gid = r.u64();
  logm::Glsn glsn = r.u64();
  r.expect_end();
  auto it = pending_glsn_.find(gid);
  if (it == pending_glsn_.end() || it->second.done) return;
  it->second.done = true;
  sim.cancel_timer(it->second.timer);
  timer_to_gid_.erase(it->second.timer);
  if (GlsnServed* served = glsn_request_journal_.find(
          {it->second.user, it->second.user_reqid})) {
    *served = GlsnServed{0, glsn, true};
  }
  net::Writer w;
  w.u64(it->second.user_reqid);
  w.u64(glsn);
  send_payload(sim, id(), it->second.user, kGlsnReply, std::move(w));
  pending_glsn_.erase(it);
}

// ===================================================== logging path ========

void DlaNode::handle_log_fragment(net::Transport& sim,
                                  const net::Message& msg) {
  net::Reader r(msg.payload);
  Ticket ticket = Ticket::decode(r);
  bool is_replica = r.boolean();
  logm::Fragment fragment = logm::Fragment::decode(r);
  // Copy sequence number, echoed in the ack so the user can tell a
  // duplicated ack from a distinct copy's ack.
  std::uint32_t copy_seq = r.u32();
  r.expect_end();
  // A Write ticket does not vouch for the bytes: refuse values outside the
  // schema before they reach the store and its indexes.
  bool ok = tickets_->authorizes(ticket, logm::Op::Write, sim.now()) &&
            cfg_->schema.admits(fragment.attrs);
  logm::Glsn glsn = fragment.glsn;
  if (ok) {
    (is_replica ? *replica_engine_ : *engine_).put(std::move(fragment));
    acl_.grant(ticket.id, ticket.ops);
    acl_.authorize(ticket.id, glsn);
  }
  net::Writer w;
  w.u64(glsn);
  w.boolean(ok);
  w.u32(copy_seq);
  send_payload(sim, id(), msg.src, kLogAck, std::move(w));
}

void DlaNode::handle_accum_deposit(net::Transport&, const net::Message& msg) {
  net::Reader r(msg.payload);
  logm::Glsn glsn = r.u64();
  bn::BigUInt value = r.big();
  r.expect_end();
  // At-least-once guard: glsns are never reused, so a deposit for a glsn
  // this node already deleted is a late duplicate from before the delete —
  // accepting it would resurrect the accumulator entry for a record that no
  // longer exists and fail the next integrity circulation.
  if (deleted_glsns_.contains(glsn)) {
    ++replay_drops_;
    return;
  }
  deposits_[glsn] = std::move(value);
}

void DlaNode::handle_fragment_request(net::Transport& sim,
                                      const net::Message& msg) {
  net::Reader r(msg.payload);
  std::uint64_t reqid = r.u64();
  Ticket ticket = Ticket::decode(r);
  logm::Glsn glsn = r.u64();
  r.expect_end();
  bool ok = tickets_->authorizes(ticket, logm::Op::Read, sim.now()) &&
            (ticket.auditor || acl_.allowed(ticket.id, logm::Op::Read, glsn));
  const std::optional<logm::Fragment> frag =
      ok ? engine_->fetch(glsn) : std::nullopt;
  net::Writer w;
  w.u64(reqid);
  w.u64(glsn);
  w.boolean(frag.has_value());
  // Authorized-result path: plaintext leaves the node only after the ticket
  // check above proves the requester owns (or may audit) this record, and
  // the reply carries a single fragment — never a cross-node join of
  // attributes. Query handlers, by contrast, must only ever return glsns.
  // DLA-LINT-ALLOW(plaintext-egress): ticket-authorized owner/auditor readback
  if (frag) frag->encode(w);
  send_payload(sim, id(), msg.src, kFragmentReply, std::move(w));
}

void DlaNode::handle_fragment_delete(net::Transport& sim,
                                     const net::Message& msg) {
  net::Reader r(msg.payload);
  std::uint64_t reqid = r.u64();
  Ticket ticket = Ticket::decode(r);
  logm::Glsn glsn = r.u64();
  r.expect_end();
  // At-least-once dedup: a delete is not idempotent — re-running it finds
  // the record already gone (and the ACL entry already revoked) and would
  // answer refused; a reordered refusal can then overtake the original
  // acknowledgement at the session. Replay the remembered outcome instead.
  const std::pair<net::NodeId, std::uint64_t> journal_key{msg.src, reqid};
  bool ok;
  if (const bool* outcome = delete_journal_.find(journal_key)) {
    ++replay_drops_;
    ok = *outcome;
  } else {
    ok = tickets_->authorizes(ticket, logm::Op::Delete, sim.now()) &&
         acl_.allowed(ticket.id, logm::Op::Delete, glsn);
    if (ok) {
      ok = engine_->erase(glsn);
      replica_engine_->erase(glsn);
      acl_.revoke(ticket.id, glsn);
      deposits_.erase(glsn);
      // Tombstone: a late duplicate of the original kAccumDeposit must not
      // resurrect the erased accumulator entry (see handle_accum_deposit).
      deleted_glsns_.insert(glsn);
    }
    delete_journal_.insert(journal_key, ok);
  }
  net::Writer w;
  w.u64(reqid);
  w.u64(glsn);
  w.boolean(ok);
  send_payload(sim, id(), msg.src, kDeleteReply, std::move(w));
}

// ================================================== secure set ring ========

crypto::PhKey& DlaNode::session_key(SessionId session) {
  auto it = session_keys_.find(session);
  if (it == session_keys_.end()) {
    it = session_keys_
             .emplace(session, crypto::PhKey::generate(cfg_->ph_domain, rng_))
             .first;
  }
  return it->second;
}

void DlaNode::stage_set_input(SessionId session,
                              std::vector<bn::BigUInt> elements) {
  sort_unique(elements);
  set_inputs_[session] = std::move(elements);
}

void DlaNode::start_set_protocol(net::Transport& sim, const SetSpec& spec) {
  net::Writer w;
  spec.encode(w);
  for (net::NodeId p : spec.participants) {
    net::Writer copy;
    spec.encode(copy);
    send_payload(sim, id(), p, kSetStart, std::move(copy));
  }
}

void DlaNode::handle_set_start(net::Transport& sim, const net::Message& msg) {
  net::Reader r(msg.payload);
  SetSpec spec = SetSpec::decode(r);
  r.expect_end();
  // At-least-once delivery: a duplicate kSetStart would contribute this
  // node's set twice (doubling ring traffic), and one arriving after the
  // session's decrypt pass would resurrect an already-spent session key.
  if (set_started_guard_.check_and_mark(spec.session) ||
      set_spent_guard_.contains(spec.session)) {
    ++replay_drops_;
    return;
  }
  // Source this node's input per the session purpose.
  std::vector<bn::BigUInt> elements;
  if (spec.purpose == SetPurpose::AclEntries) {
    for (const auto& entry : acl_.canonical_entries()) {
      elements.push_back(crypto::encode_element(cfg_->ph_domain, entry));
    }
    sort_unique(elements);
  } else {
    auto it = set_inputs_.find(spec.session);
    if (it != set_inputs_.end()) {
      elements = it->second;
    }
    // Missing staged input contributes the empty set (drains intersections,
    // neutral for unions) rather than stalling the ring.
  }
  std::size_t my_pos = spec.participants.size();
  for (std::size_t i = 0; i < spec.participants.size(); ++i) {
    if (spec.participants[i] == id()) my_pos = i;
  }
  if (my_pos == spec.participants.size()) {
    // A kSetStart naming this node as ring member without listing it in
    // participants is malformed: drop it rather than joining at a fabricated
    // position 0 (which would double-encrypt someone else's slot).
    ++set_ring_rejects_;
    return;
  }
  ring_start_stream(sim, spec, static_cast<std::uint32_t>(my_pos),
                    std::move(elements));
}

std::uint32_t DlaNode::chunk_count(std::size_t n) const {
  if (set_chunk_size_ == 0 || n <= set_chunk_size_) return 1;
  return static_cast<std::uint32_t>((n + set_chunk_size_ - 1) /
                                    set_chunk_size_);
}

void DlaNode::ring_start_stream(net::Transport& sim, const SetSpec& spec,
                                std::uint32_t my_pos,
                                std::vector<bn::BigUInt> elements) {
  // Chunking happens once, at the origin; every later hop re-encrypts and
  // forwards chunks exactly as framed here, so mixed chunk-size settings
  // across the ring interoperate. An empty input still circulates one empty
  // chunk — the stream is what lets every hop learn of the session and the
  // collector count this origin as landed.
  const std::uint32_t n_chunks = chunk_count(elements.size());
  const std::size_t stride =
      n_chunks == 1 ? elements.size() : set_chunk_size_;
  for (std::uint32_t seq = 0; seq < n_chunks; ++seq) {
    const std::size_t begin = seq * stride;
    const std::size_t end =
        seq + 1 == n_chunks ? elements.size() : begin + stride;
    std::vector<bn::BigUInt> chunk(
        std::make_move_iterator(elements.begin() + begin),
        std::make_move_iterator(elements.begin() + end));
    SetChunkHeader header{my_pos, kRingEncrypt, seq, n_chunks};
    ring_encrypt_and_forward(sim, spec, header, 0, std::move(chunk));
  }
}

void DlaNode::ring_encrypt_and_forward(net::Transport& sim,
                                       const SetSpec& spec,
                                       SetChunkHeader header,
                                       std::uint32_t hops,
                                       std::vector<bn::BigUInt> elements) {
  // Position check BEFORE any crypto: a node absent from participants must
  // not encrypt (and thus alter) a circulating set it has no slot in.
  std::size_t my_pos = spec.participants.size();
  for (std::size_t i = 0; i < spec.participants.size(); ++i) {
    if (spec.participants[i] == id()) my_pos = i;
  }
  if (my_pos == spec.participants.size()) {
    ++set_ring_rejects_;
    return;
  }
  // Header validation against the accompanying spec: `origin` indexes
  // full_sets at the collector and `hops` indexes participants on forward,
  // so a corrupted or cross-ring-replayed frame must die here, not index
  // out of bounds downstream.
  if (header.ring_id != kRingEncrypt ||
      header.origin >= spec.participants.size() ||
      hops >= spec.participants.size() || header.n_chunks == 0 ||
      header.chunk_seq >= header.n_chunks) {
    ++set_ring_rejects_;
    return;
  }
  // A replayed ring hop after the decrypt pass must not regenerate the
  // (erased) session key — that would leave key/input residue behind and
  // emit ciphertexts nobody can strip.
  if (set_spent_guard_.contains(spec.session)) {
    ++replay_drops_;
    return;
  }
  crypto::PhKey& key = session_key(spec.session);
  key.encrypt_batch(elements);
  ++hops;
  if (hops == spec.participants.size()) {
    net::Writer w;
    spec.encode(w);
    header.encode(w);
    encode_elements(w, elements);
    send_payload(sim, id(), spec.collector, kSetFull, std::move(w));
    return;
  }
  net::NodeId next = spec.participants[(my_pos + 1) % spec.participants.size()];
  net::Writer w;
  spec.encode(w);
  header.encode(w);
  w.u32(hops);
  encode_elements(w, elements);
  send_payload(sim, id(), next, kSetRing, std::move(w));
}

void DlaNode::handle_set_ring(net::Transport& sim, const net::Message& msg) {
  net::Reader r(msg.payload);
  SetSpec spec = SetSpec::decode(r);
  SetChunkHeader header = SetChunkHeader::decode(r);
  std::uint32_t hops = r.u32();
  std::vector<bn::BigUInt> elements = decode_elements(r);
  r.expect_end();
  ring_encrypt_and_forward(sim, spec, header, hops, std::move(elements));
}

void DlaNode::handle_set_full(net::Transport& sim, const net::Message& msg) {
  net::Reader r(msg.payload);
  SetSpec spec = SetSpec::decode(r);
  SetChunkHeader header = SetChunkHeader::decode(r);
  std::vector<bn::BigUInt> elements = decode_elements(r);
  r.expect_end();
  // Validate before touching set_collect_: `origin` keys full_sets, so an
  // out-of-range origin would count toward the participants-landed total
  // and leave residue for a session that can never complete.
  if (header.ring_id != kRingEncrypt ||
      header.origin >= spec.participants.size() || header.n_chunks == 0 ||
      header.chunk_seq >= header.n_chunks) {
    ++set_ring_rejects_;
    return;
  }
  // A duplicate kSetFull arriving after the combine would recreate the
  // collect entry (session residue) and, worse, kick off a second decrypt
  // ring against already-spent keys.
  if (set_combined_guard_.contains(spec.session)) {
    ++replay_drops_;
    return;
  }
  SetCollect& collect = set_collect_[spec.session];
  if (collect.full_sets.contains(header.origin)) {
    ++replay_drops_;  // whole stream already graduated
    return;
  }
  SetCollect::Partial& partial = collect.partials[header.origin];
  if (partial.n_chunks == 0) {
    partial.n_chunks = header.n_chunks;
  } else if (partial.n_chunks != header.n_chunks) {
    ++set_ring_rejects_;  // frames disagree on stream length
    return;
  }
  if (partial.chunks.contains(header.chunk_seq)) {
    ++replay_drops_;
    return;
  }
  partial.chunks[header.chunk_seq] = std::move(elements);
  if (partial.chunks.size() < partial.n_chunks) return;

  // Stream complete for this origin: graduate to full_sets in seq order.
  std::vector<bn::BigUInt>& full = collect.full_sets[header.origin];
  for (auto& [seq, chunk] : partial.chunks) {
    (void)seq;
    full.insert(full.end(), std::make_move_iterator(chunk.begin()),
                std::make_move_iterator(chunk.end()));
  }
  collect.partials.erase(header.origin);
  if (collect.full_sets.size() < spec.participants.size()) return;

  // All fully-encrypted sets present: combine under the chosen operation.
  std::vector<bn::BigUInt> combined;
  bool first = true;
  for (auto& [idx, set] : collect.full_sets) {
    sort_unique(set);
    if (first) {
      combined = set;
      first = false;
      continue;
    }
    combined = spec.op == SetOp::Intersect
                   ? logm::intersect_sorted(combined, set)
                   : logm::union_sorted(combined, set);
  }
  set_collect_.erase(spec.session);
  set_combined_guard_.insert(spec.session);

  // Route the combined ciphertexts through every participant to strip the
  // commutative encryptions (order irrelevant). An empty combined set still
  // takes the decrypt ring — decrypting nothing is free, and the pass is
  // what lets every participant retire its session key and staged input.
  // The pass is chunked like the encrypt ring so a wide combined set
  // pipelines across hops instead of serializing per hop.
  const std::uint32_t n_chunks = chunk_count(combined.size());
  const std::size_t stride =
      n_chunks == 1 ? combined.size() : set_chunk_size_;
  for (std::uint32_t seq = 0; seq < n_chunks; ++seq) {
    const std::size_t begin = seq * stride;
    const std::size_t end =
        seq + 1 == n_chunks ? combined.size() : begin + stride;
    std::vector<bn::BigUInt> chunk(
        std::make_move_iterator(combined.begin() + begin),
        std::make_move_iterator(combined.begin() + end));
    net::Writer w;
    spec.encode(w);
    SetChunkHeader{0, kRingDecrypt, seq, n_chunks}.encode(w);
    w.u32(0);  // hops
    encode_elements(w, chunk);
    send_payload(sim, id(), spec.participants[0], kSetDecrypt, std::move(w));
  }
}

void DlaNode::handle_set_decrypt(net::Transport& sim,
                                 const net::Message& msg) {
  net::Reader r(msg.payload);
  SetSpec spec = SetSpec::decode(r);
  SetChunkHeader header = SetChunkHeader::decode(r);
  std::uint32_t hops = r.u32();
  std::vector<bn::BigUInt> elements = decode_elements(r);
  r.expect_end();
  // `hops` indexes participants on forward, so it must be validated BEFORE
  // the increment below — a corrupted value at or past participants.size()
  // previously indexed out of bounds here.
  if (header.ring_id != kRingDecrypt || header.n_chunks == 0 ||
      header.chunk_seq >= header.n_chunks ||
      hops >= spec.participants.size()) {
    ++set_ring_rejects_;
    return;
  }
  // Look the key up instead of lazily creating it: on a duplicate decrypt
  // pass the key was already spent, and session_key() would mint a fresh
  // random key that corrupts the ciphertexts (and lingers forever).
  auto kit = session_keys_.find(spec.session);
  if (kit == session_keys_.end()) {
    ++replay_drops_;
    return;
  }
  DecryptProgress& prog = decrypt_progress_[spec.session];
  if (prog.n_chunks == 0) {
    prog.n_chunks = header.n_chunks;
  } else if (prog.n_chunks != header.n_chunks) {
    ++set_ring_rejects_;  // frames disagree on stream length
    return;
  }
  // A duplicated chunk must not be decrypted twice — stripping the same
  // layer twice corrupts the ciphertext for every downstream hop.
  if (!prog.seen.insert(header.chunk_seq).second) {
    ++replay_drops_;
    return;
  }
  kit->second.decrypt_batch(elements);
  const std::uint32_t next_hops = hops + 1;
  const bool terminal = next_hops == spec.participants.size();
  if (terminal) {
    prog.chunks[header.chunk_seq] = std::move(elements);
  } else {
    net::Writer w;
    spec.encode(w);
    header.encode(w);
    w.u32(next_hops);
    encode_elements(w, elements);
    send_payload(sim, id(), spec.participants[next_hops], kSetDecrypt,
                 std::move(w));
  }
  if (prog.seen.size() < prog.n_chunks) return;

  // Whole stream decrypted at this hop: the session key is spent.
  session_keys_.erase(kit);
  set_inputs_.erase(spec.session);
  set_spent_guard_.insert(spec.session);
  if (terminal) {
    // Concatenate in seq order and deliver one monolithic result so
    // observers see bit-identical payloads regardless of chunk size.
    std::vector<bn::BigUInt> result;
    for (auto& [seq, chunk] : prog.chunks) {
      (void)seq;
      result.insert(result.end(), std::make_move_iterator(chunk.begin()),
                    std::make_move_iterator(chunk.end()));
    }
    for (net::NodeId obs : spec.observers) {
      net::Writer w;
      w.u64(spec.session);
      encode_elements(w, result);
      send_payload(sim, id(), obs, kSetResult, std::move(w));
    }
  }
  decrypt_progress_.erase(spec.session);
}

void DlaNode::handle_set_result(net::Transport& sim, const net::Message& msg) {
  net::Reader r(msg.payload);
  SessionId session = r.u64();
  std::vector<bn::BigUInt> elements = decode_elements(r);
  r.expect_end();
  if (set_result_guard_.check_and_mark(session)) {
    ++replay_drops_;
    return;
  }

  // Internal consumers first: ACL audit and query combines.
  if (auto acl_it = acl_sessions_.find(session); acl_it != acl_sessions_.end()) {
    acl_sessions_.erase(acl_it);
    std::vector<bn::BigUInt> own;
    for (const auto& entry : acl_.canonical_entries()) {
      own.push_back(crypto::encode_element(cfg_->ph_domain, entry));
    }
    sort_unique(own);
    sort_unique(elements);
    bool consistent = own == elements;
    if (on_acl_check) on_acl_check(session, consistent);
    return;
  }
  if (auto pc = pending_combines_.find(session); pc != pending_combines_.end()) {
    // This node is the gateway of a query whose combine step just finished.
    PendingCombine combine = pc->second;
    pending_combines_.erase(pc);
    std::vector<logm::Glsn> glsns;
    glsns.reserve(elements.size());
    for (const auto& e : elements) glsns.push_back(decode_glsn_element(e));
    sort_unique(glsns);
    if (combine.is_final) {
      auto qit = queries_.find(combine.qid);
      if (qit != queries_.end()) finish_query(sim, qit->second, std::move(glsns));
      return;
    }
    result_sets_[session] = std::move(glsns);
    task_completed(sim, combine.qid);
    return;
  }
  if (on_set_result) on_set_result(session, std::move(elements));
}

void DlaNode::start_acl_consistency_check(net::Transport& sim,
                                          SessionId session) {
  acl_sessions_[session] = true;
  SetSpec spec;
  spec.session = session;
  spec.op = SetOp::Intersect;
  spec.purpose = SetPurpose::AclEntries;
  spec.participants = cfg_->dla_nodes;
  spec.collector = id();
  spec.observers = {id()};
  start_set_protocol(sim, spec);
}

// ====================================================== secure sum =========

void DlaNode::stage_sum_input(SessionId session, bn::BigUInt value) {
  sum_inputs_[session] = std::move(value);
}

void DlaNode::start_sum(net::Transport& sim, const SumSpec& spec) {
  if (spec.threshold_k == 0 || spec.threshold_k > spec.participants.size())
    throw std::invalid_argument("start_sum: bad threshold");
  if (!spec.weights.empty() &&
      spec.weights.size() != spec.participants.size())
    throw std::invalid_argument("start_sum: weight count mismatch");
  for (net::NodeId p : spec.participants) {
    net::Writer w;
    spec.encode(w);
    send_payload(sim, id(), p, kSumStart, std::move(w));
  }
}

void DlaNode::handle_sum_start(net::Transport& sim, const net::Message& msg) {
  net::Reader r(msg.payload);
  SumSpec spec = SumSpec::decode(r);
  r.expect_end();
  if (sum_done_guard_.contains(spec.session)) {
    ++replay_drops_;
    return;
  }
  SumState& state = sum_state_[spec.session];
  state.spec = spec;

  bn::BigUInt secret;
  if (auto it = sum_inputs_.find(spec.session); it != sum_inputs_.end()) {
    secret = it->second;  // absent input contributes zero
  }
  crypto::ShamirField field(cfg_->shamir_prime);
  std::vector<bn::BigUInt> xs;
  xs.reserve(spec.participants.size());
  for (std::size_t j = 0; j < spec.participants.size(); ++j) {
    xs.emplace_back(static_cast<std::uint64_t>(j + 1));
  }
  std::size_t my_index = 0;
  for (std::size_t i = 0; i < spec.participants.size(); ++i) {
    if (spec.participants[i] == id()) my_index = i;
  }
  auto shares = field.split(secret % cfg_->shamir_prime, spec.threshold_k, xs,
                            rng_);
  for (std::size_t j = 0; j < spec.participants.size(); ++j) {
    net::Writer w;
    w.u64(spec.session);
    w.u32(static_cast<std::uint32_t>(my_index));
    w.big(shares[j].y);
    send_payload(sim, id(), spec.participants[j], kSumShare, std::move(w));
  }
  maybe_emit_sum_eval(sim, spec.session);
}

void DlaNode::handle_sum_share(net::Transport& sim, const net::Message& msg) {
  net::Reader r(msg.payload);
  SessionId session = r.u64();
  std::uint32_t from = r.u32();
  bn::BigUInt y = r.big();
  r.expect_end();
  // A share replayed after the session finished would recreate the state
  // entry; one replayed before is an idempotent map overwrite.
  if (sum_done_guard_.contains(session)) {
    ++replay_drops_;
    return;
  }
  SumState& state = sum_state_[session];
  state.shares_received[from] = std::move(y);
  maybe_emit_sum_eval(sim, session);
}

void DlaNode::maybe_emit_sum_eval(net::Transport& sim, SessionId session) {
  SumState& state = sum_state_[session];
  // Shares can outrun the kSumStart carrying the spec under asymmetric
  // latencies; both arrival paths funnel through this check.
  if (state.spec.participants.empty() ||
      state.shares_received.size() < state.spec.participants.size() ||
      state.evaluated) {
    return;
  }
  state.evaluated = true;
  // F(x_me) = sum_i alpha_i * s_i,me  (alpha_i = 1 when unweighted).
  crypto::ShamirField field(cfg_->shamir_prime);
  bn::BigUInt f;
  for (const auto& [from_index, share] : state.shares_received) {
    bn::BigUInt term = share;
    if (!state.spec.weights.empty()) {
      term = field.mul(state.spec.weights[from_index], term);
    }
    f = field.add(f, term);
  }
  std::size_t my_index = 0;
  for (std::size_t i = 0; i < state.spec.participants.size(); ++i) {
    if (state.spec.participants[i] == id()) my_index = i;
  }
  net::Writer w;
  state.spec.encode(w);
  w.big(bn::BigUInt(static_cast<std::uint64_t>(my_index + 1)));
  w.big(f);
  send_payload(sim, id(), state.spec.collector, kSumEval, std::move(w));
}

void DlaNode::handle_sum_eval(net::Transport& sim, const net::Message& msg) {
  net::Reader r(msg.payload);
  SumSpec spec = SumSpec::decode(r);
  bn::BigUInt x = r.big();
  bn::BigUInt y = r.big();
  r.expect_end();
  if (sum_done_guard_.contains(spec.session)) {
    ++replay_drops_;
    return;
  }
  SumState& state = sum_state_[spec.session];
  if (state.reconstructed) return;
  if (state.spec.participants.empty()) state.spec = spec;
  // Duplicate evals share the evaluation point: folding one in twice would
  // hand Lagrange reconstruction a repeated x (division by zero).
  for (const auto& have : state.evals) {
    if (have.x == x) {
      ++replay_drops_;
      return;
    }
  }
  state.evals.push_back(crypto::Share{std::move(x), std::move(y)});
  if (state.evals.size() < spec.threshold_k) return;
  state.reconstructed = true;
  crypto::ShamirField field(cfg_->shamir_prime);
  bn::BigUInt total = field.reconstruct(state.evals);
  for (net::NodeId obs : spec.observers) {
    net::Writer w;
    w.u64(spec.session);
    w.big(total);
    send_payload(sim, id(), obs, kSumResult, std::move(w));
  }
}

void DlaNode::handle_sum_result(net::Transport&, const net::Message& msg) {
  net::Reader r(msg.payload);
  SessionId session = r.u64();
  bn::BigUInt value = r.big();
  r.expect_end();
  if (sum_done_guard_.check_and_mark(session)) {
    ++replay_drops_;
    return;
  }
  sum_state_.erase(session);
  sum_inputs_.erase(session);
  if (on_sum_result) on_sum_result(session, std::move(value));
}

// ============================================ blind-TTP comparisons ========

void DlaNode::stage_cmp_input(SessionId session, bn::BigUInt value) {
  cmp_inputs_[session] = std::move(value);
}

void DlaNode::start_cmp(net::Transport& sim, CmpSpec spec) {
  const bn::BigUInt& p = cfg_->shamir_prime;
  if (spec.op == CmpOpKind::Equality) {
    // Full hiding: random affine map taken mod p destroys order.
    spec.a = bn::BigUInt::random_below(rng_, p - bn::BigUInt(1)) + bn::BigUInt(1);
    spec.b = bn::BigUInt::random_below(rng_, p);
  } else {
    // Order-preserving: small coefficients so a*Y + b never wraps. Order is
    // the secondary information the relaxed model concedes to the TTP.
    spec.a = bn::BigUInt(rng_.next_below((1u << 20) - 1) + 1);
    spec.b = bn::BigUInt(rng_.next_below(1ull << 32));
  }
  for (net::NodeId participant : spec.participants) {
    net::Writer w;
    spec.encode(w, /*include_transform=*/true);
    send_payload(sim, id(), participant, kCmpParams, std::move(w));
  }
  net::Writer w;
  spec.encode(w, /*include_transform=*/false);
  send_payload(sim, id(), spec.ttp, kCmpSpec, std::move(w));
}

void DlaNode::handle_cmp_params(net::Transport& sim, const net::Message& msg) {
  net::Reader r(msg.payload);
  CmpSpec spec = CmpSpec::decode(r, /*include_transform=*/true);
  r.expect_end();
  // send_transformed_value consumes the staged input, so a duplicate
  // kCmpParams would ship w(0) to the TTP and corrupt the comparison.
  if (cmp_sent_guard_.check_and_mark(spec.session)) {
    ++replay_drops_;
    return;
  }
  send_transformed_value(sim, spec);
}

void DlaNode::send_transformed_value(net::Transport& sim,
                                     const CmpSpec& spec) {
  bn::BigUInt y;
  if (auto it = cmp_inputs_.find(spec.session); it != cmp_inputs_.end()) {
    y = it->second;
  }
  bn::BigUInt w_value;
  if (spec.op == CmpOpKind::Equality) {
    const bn::BigUInt& p = cfg_->shamir_prime;
    w_value = (bn::BigUInt::mulmod(spec.a, y % p, p) + spec.b) % p;
  } else {
    w_value = spec.a * y + spec.b;  // no wrap: order preserved
  }
  std::size_t my_index = 0;
  for (std::size_t i = 0; i < spec.participants.size(); ++i) {
    if (spec.participants[i] == id()) my_index = i;
  }
  net::Writer w;
  w.u64(spec.session);
  w.u32(static_cast<std::uint32_t>(my_index));
  w.big(w_value);
  send_payload(sim, id(), spec.ttp, kCmpValue, std::move(w));
  cmp_inputs_.erase(spec.session);
}

void DlaNode::handle_cmp_result(net::Transport&, const net::Message& msg) {
  net::Reader r(msg.payload);
  SessionId session = r.u64();
  auto op = static_cast<CmpOpKind>(r.u8());
  std::uint32_t outcome = r.u32();
  r.expect_end();
  if (cmp_result_guard_.check_and_mark(session)) {
    ++replay_drops_;
    return;
  }
  if (on_cmp_result) on_cmp_result(session, op, outcome);
}

void DlaNode::handle_rank_result(net::Transport&, const net::Message& msg) {
  net::Reader r(msg.payload);
  SessionId session = r.u64();
  std::uint32_t rank = r.u32();
  r.expect_end();
  if (cmp_result_guard_.check_and_mark(session)) {
    ++replay_drops_;
    return;
  }
  if (on_rank) on_rank(session, rank);
}

// ============================================= secure scalar product =======
// Du-Atallah with the blind TTP as commodity server. The server hands
// Alice (Ra, ra) and Bob (Rb, rb) with ra + rb = Ra.Rb; then
//   Alice -> Bob:  A^ = A + Ra
//   Bob   -> Alice: t = A^.B + rb   and   B^ = B + Rb
//   Alice:         A.B = t - Ra.B^ + ra
// Every value the parties or the server see is masked by fresh randomness.

void DlaNode::stage_vector_input(SessionId session,
                                 std::vector<bn::BigUInt> v) {
  vector_inputs_[session] = std::move(v);
}

void DlaNode::start_scalar_product(net::Transport& sim, SessionId session,
                                   net::NodeId alice, net::NodeId bob,
                                   std::uint32_t length,
                                   std::vector<net::NodeId> observers) {
  net::Writer w;
  w.u64(session);
  w.u32(alice);
  w.u32(bob);
  w.u32(length);
  encode_node_ids(w, observers);
  send_payload(sim, id(), cfg_->ttp, kScalarInit, std::move(w));
}

void DlaNode::handle_scalar_randomness(net::Transport& sim,
                                       const net::Message& msg) {
  net::Reader r(msg.payload);
  SessionId session = r.u64();
  bool is_alice = r.boolean();
  net::NodeId peer = r.u32();
  std::vector<net::NodeId> observers = decode_node_ids(r);
  std::vector<bn::BigUInt> r_vec = decode_elements(r);
  bn::BigUInt r_scalar = r.big();
  r.expect_end();

  if (scalar_done_guard_.contains(session)) {
    ++replay_drops_;
    return;
  }
  ScalarState& st = scalar_state_[session];
  st.is_alice = is_alice;
  st.peer = peer;
  st.observers = std::move(observers);
  st.r_vec = std::move(r_vec);
  st.r_scalar = std::move(r_scalar);
  st.have_randomness = true;
  if (is_alice) {
    scalar_send_masked_a(sim, session);
  } else if (!st.pending_masked_a.empty()) {
    scalar_bob_reply(sim, session);
  }
}

void DlaNode::scalar_send_masked_a(net::Transport& sim, SessionId session) {
  ScalarState& st = scalar_state_[session];
  crypto::ShamirField field(cfg_->shamir_prime);
  auto input = vector_inputs_.find(session);
  std::vector<bn::BigUInt> masked(st.r_vec.size());
  for (std::size_t i = 0; i < st.r_vec.size(); ++i) {
    bn::BigUInt a = input != vector_inputs_.end() && i < input->second.size()
                        ? input->second[i]
                        : bn::BigUInt{};
    masked[i] = field.add(a, st.r_vec[i]);
  }
  net::Writer w;
  w.u64(session);
  encode_elements(w, masked);
  send_payload(sim, id(), st.peer, kScalarMaskedA, std::move(w));
}

void DlaNode::handle_scalar_masked_a(net::Transport& sim,
                                     const net::Message& msg) {
  net::Reader r(msg.payload);
  SessionId session = r.u64();
  // Decode fully (and check for trailing bytes) before touching state, so a
  // malformed frame cannot leave a half-updated session entry behind.
  std::vector<bn::BigUInt> masked_a = decode_elements(r);
  r.expect_end();
  if (scalar_done_guard_.contains(session)) {
    ++replay_drops_;
    return;
  }
  ScalarState& st = scalar_state_[session];
  st.pending_masked_a = std::move(masked_a);
  if (st.have_randomness) scalar_bob_reply(sim, session);
}

void DlaNode::scalar_bob_reply(net::Transport& sim, SessionId session) {
  ScalarState& st = scalar_state_[session];
  crypto::ShamirField field(cfg_->shamir_prime);
  auto input = vector_inputs_.find(session);
  // t = (A + Ra) . B + rb
  bn::BigUInt t = st.r_scalar;
  std::vector<bn::BigUInt> masked_b(st.r_vec.size());
  for (std::size_t i = 0; i < st.r_vec.size(); ++i) {
    bn::BigUInt b = input != vector_inputs_.end() && i < input->second.size()
                        ? input->second[i]
                        : bn::BigUInt{};
    if (i < st.pending_masked_a.size()) {
      t = field.add(t, field.mul(st.pending_masked_a[i], b));
    }
    masked_b[i] = field.add(b, st.r_vec[i]);
  }
  net::Writer w;
  w.u64(session);
  w.big(t);
  encode_elements(w, masked_b);
  send_payload(sim, id(), st.peer, kScalarReply, std::move(w));
  scalar_state_.erase(session);
  vector_inputs_.erase(session);
  scalar_done_guard_.insert(session);
}

void DlaNode::handle_scalar_reply(net::Transport& sim,
                                  const net::Message& msg) {
  net::Reader r(msg.payload);
  SessionId session = r.u64();
  bn::BigUInt t = r.big();
  std::vector<bn::BigUInt> masked_b = decode_elements(r);
  r.expect_end();
  auto sit = scalar_state_.find(session);
  if (sit == scalar_state_.end()) return;
  ScalarState& st = sit->second;
  crypto::ShamirField field(cfg_->shamir_prime);
  // A.B = t - Ra.B^ + ra
  bn::BigUInt ra_dot_bhat;
  for (std::size_t i = 0; i < st.r_vec.size() && i < masked_b.size(); ++i) {
    ra_dot_bhat = field.add(ra_dot_bhat, field.mul(st.r_vec[i], masked_b[i]));
  }
  bn::BigUInt result =
      field.add(field.sub(t, ra_dot_bhat), st.r_scalar);
  for (net::NodeId obs : st.observers) {
    net::Writer w;
    w.u64(session);
    w.big(result);
    send_payload(sim, id(), obs, kScalarResult, std::move(w));
  }
  scalar_state_.erase(sit);
  vector_inputs_.erase(session);
  scalar_done_guard_.insert(session);
}

void DlaNode::handle_scalar_result(net::Transport&, const net::Message& msg) {
  net::Reader r(msg.payload);
  SessionId session = r.u64();
  bn::BigUInt value = r.big();
  r.expect_end();
  if (scalar_result_guard_.check_and_mark(session)) {
    ++replay_drops_;
    return;
  }
  if (on_scalar_result) on_scalar_result(session, std::move(value));
}

// ================================================ integrity checking =======

std::string DlaNode::fragment_canonical_or_missing(logm::Glsn glsn) const {
  const std::optional<logm::Fragment> frag = engine_->fetch(glsn);
  if (!frag) {
    return "MISSING:" + std::to_string(glsn);
  }
  return frag->canonical();
}

void DlaNode::start_integrity_check(net::Transport& sim, SessionId session,
                                    logm::Glsn glsn) {
  integrity_initiated_[session] = IntegritySession{glsn};
  bn::BigUInt value = accum_stepper_->step(
      cfg_->accum_params.x0, fragment_canonical_or_missing(glsn));
  net::Writer w;
  w.u64(session);
  w.u64(glsn);
  w.u32(1);  // hops: own fragment folded
  w.u32(static_cast<std::uint32_t>(index_));
  w.big(value);
  send_payload(sim, id(), cfg_->next_in_ring(index_), kIntegrityPass,
               std::move(w));
}

void DlaNode::handle_integrity_pass(net::Transport& sim,
                                    const net::Message& msg) {
  net::Reader r(msg.payload);
  SessionId session = r.u64();
  logm::Glsn glsn = r.u64();
  std::uint32_t hops = r.u32();
  std::uint32_t initiator = r.u32();
  bn::BigUInt value = r.big();
  r.expect_end();

  if (hops == cfg_->cluster_size()) {
    // Back at the initiator: compare against the user's deposit. Only the
    // first completed circuit counts — a duplicated pass message arriving
    // after the erase must not re-fire the result callback.
    if (integrity_initiated_.erase(session) == 0) {
      ++replay_drops_;
      return;
    }
    auto dep = deposits_.find(glsn);
    bool ok = dep != deposits_.end() && dep->second == value;
    if (on_integrity_result) on_integrity_result(session, glsn, ok);
    return;
  }
  value = accum_stepper_->step(value, fragment_canonical_or_missing(glsn));
  net::Writer w;
  w.u64(session);
  w.u64(glsn);
  w.u32(hops + 1);
  w.u32(initiator);
  w.big(value);
  send_payload(sim, id(), cfg_->next_in_ring(index_), kIntegrityPass,
               std::move(w));
}

// ================================================= query pipeline ==========

std::vector<logm::Glsn> DlaNode::eval_local(const Expr& expr) const {
  // Compiled, selectivity-ordered engine (docs/QUERY_ENGINE.md); plans
  // across the memtable and any sealed segments (docs/STORAGE.md) and falls
  // back to the naive scan when the store runs with indexing disabled.
  return eval_engine_indexed(expr, engine_for(attributes_of(expr)));
}

const logm::StorageEngine& DlaNode::engine_for(
    const std::set<std::string>& attrs) const {
  for (const auto& attr : attrs) {
    if (cfg_->partition.node_for(attr) != index_) return *replica_engine_;
  }
  return *engine_;
}

std::size_t DlaNode::owner_for(const std::string& attr,
                               net::SimTime now) const {
  std::size_t primary = cfg_->partition.node_for(attr);
  if (cfg_->replication >= 2 && suspects(primary, now)) {
    // Route to the successor replica while the primary is suspected.
    return (primary + 1) % cfg_->cluster_size();
  }
  return primary;
}

std::uint64_t DlaNode::plan_expr(const Expr& expr, std::vector<Task>& tasks,
                                 std::uint64_t qid, net::SimTime now) {
  auto owners_of = [&](const Expr& e) {
    std::set<std::size_t> nodes;
    for (const auto& attr : attributes_of(e)) {
      nodes.insert(owner_for(attr, now));
    }
    return nodes;
  };
  std::uint64_t rid = (qid << 16) | (tasks.size() + 1);

  std::set<std::size_t> nodes = owners_of(expr);
  if (nodes.size() <= 1) {
    Task t;
    t.kind = Task::Kind::Local;
    t.rid = rid;
    t.expr_text = to_text(expr);
    t.owners = {nodes.empty() ? index_ : *nodes.begin()};
    tasks.push_back(std::move(t));
    return rid;
  }
  if (expr.kind == Expr::Kind::Pred) {
    // Cross-node attribute-vs-attribute predicate -> blind-TTP join.
    Task t;
    t.kind = Task::Kind::Join;
    t.rid = rid;
    t.join_pred = expr.pred;
    t.owners = {owner_for(expr.pred.lhs, now),
                owner_for(expr.pred.rhs_attr, now)};
    tasks.push_back(std::move(t));
    return rid;
  }
  // AND / OR spanning nodes: plan children, then a combine task.
  std::vector<std::uint64_t> child_rids;
  for (const auto& child : expr.children) {
    child_rids.push_back(plan_expr(child, tasks, qid, now));
  }
  Task t;
  t.kind = Task::Kind::Combine;
  t.rid = (qid << 16) | (tasks.size() + 1);
  t.combine_and = expr.kind == Expr::Kind::And;
  t.child_rids = std::move(child_rids);
  tasks.push_back(std::move(t));
  return tasks.back().rid;
}

void DlaNode::reply_user(net::Transport& sim, net::NodeId user,
                         std::uint64_t user_reqid, MsgType type,
                         net::Writer w) {
  net::Bytes payload = std::move(w).take();
  const std::pair<net::NodeId, std::uint64_t> key{user, user_reqid};
  user_queries_in_flight_.erase(key);
  user_reply_journal_.insert(key, UserReply{type, payload});
  sim.send(id(), user, type, std::move(payload));
}

// Shared at-least-once front door for the two query entrypoints: replays
// the journaled reply for an already-served (user, reqid), drops duplicates
// of a request still in flight, and claims the slot otherwise. Returns true
// when the caller should stop (duplicate handled).
bool DlaNode::query_is_duplicate(net::Transport& sim, net::NodeId user,
                                 std::uint64_t user_reqid) {
  const std::pair<net::NodeId, std::uint64_t> key{user, user_reqid};
  if (const UserReply* reply = user_reply_journal_.find(key)) {
    // Re-running the pipeline now could observe a later store state and
    // overtake the genuine reply at the session — replay the remembered
    // bytes instead.
    ++replay_drops_;
    sim.send(id(), user, reply->type, reply->payload);
    return true;
  }
  if (!user_queries_in_flight_.insert(key).second) {
    // The original is still running; it will journal + send its reply.
    ++replay_drops_;
    return true;
  }
  return false;
}

void DlaNode::handle_audit_query(net::Transport& sim,
                                 const net::Message& msg) {
  net::Reader r(msg.payload);
  const std::uint64_t user_reqid = r.u64();
  Ticket ticket = Ticket::decode(r);
  std::string criterion = r.str();
  r.expect_end();
  if (query_is_duplicate(sim, msg.src, user_reqid)) return;

  auto reply_error = [&](const std::string& error) {
    net::Writer w;
    w.u64(user_reqid);
    w.boolean(false);
    w.str(error);
    w.vec(std::vector<logm::Glsn>{},
          [](net::Writer& out, logm::Glsn g) { out.u64(g); });
    w.boolean(false);  // no certificate
    reply_user(sim, msg.src, user_reqid, kAuditResult, std::move(w));
  };

  if (!tickets_->authorizes(ticket, logm::Op::Read, sim.now())) {
    reply_error("ticket rejected");
    return;
  }
  QueryState qs;
  qs.user_reqid = user_reqid;
  qs.user = msg.src;
  qs.ticket = ticket;
  try {
    start_query(sim, std::move(qs), criterion);
  } catch (const ParseError& e) {
    reply_error(std::string("parse error: ") + e.what());
  }
}

void DlaNode::start_query(net::Transport& sim, QueryState qs,
                          const std::string& criterion) {
  std::uint64_t qid = (static_cast<std::uint64_t>(id()) << 24) | next_qid_++;
  qs.qid = qid;
  Expr ast = parse(criterion, cfg_->schema);
  Expr nf = push_negations(ast);
  std::vector<Expr> conjuncts = to_conjunctive(nf);
  // Planner optimisation: conjuncts whose attributes all live on the same
  // node are merged into one local subquery — fewer protocol rounds, and
  // it enables the secret-counting shortcut for compound local criteria.
  {
    std::map<std::size_t, std::vector<Expr>> by_owner;
    std::vector<Expr> multi_node;
    for (auto& conjunct : conjuncts) {
      std::set<std::size_t> nodes;
      for (const auto& attr : attributes_of(conjunct)) {
        nodes.insert(owner_for(attr, sim.now()));
      }
      if (nodes.size() == 1) {
        by_owner[*nodes.begin()].push_back(std::move(conjunct));
      } else {
        multi_node.push_back(std::move(conjunct));
      }
    }
    conjuncts.clear();
    for (auto& [owner, exprs] : by_owner) {
      conjuncts.push_back(exprs.size() == 1
                              ? std::move(exprs[0])
                              : Expr::make_and(std::move(exprs)));
    }
    for (auto& e : multi_node) conjuncts.push_back(std::move(e));
  }
  std::vector<std::uint64_t> roots;
  for (const auto& sq : conjuncts) {
    roots.push_back(plan_expr(sq, qs.tasks, qid, sim.now()));
  }
  Task final;
  final.kind = Task::Kind::FinalCombine;
  final.rid = (qid << 16) | (qs.tasks.size() + 1);
  final.combine_and = true;
  final.child_rids = std::move(roots);
  qs.tasks.push_back(std::move(final));
  // Secret-counting shortcut ([7]): an auditor-scope COUNT over a single
  // local subquery needs no glsn set at all — the owner reports only the
  // count. (User-scope tickets still need the set for ACL filtering.)
  if (qs.is_aggregate && qs.agg_op == AggOp::Count && qs.ticket.auditor &&
      qs.tasks.size() == 2 && qs.tasks[0].kind == Task::Kind::Local) {
    qs.tasks.pop_back();  // drop the FinalCombine
    qs.tasks[0].count_only = true;
  }
  qs.timeout_timer = sim.set_timer(id(), kQueryTimeout);
  timer_to_qid_[qs.timeout_timer] = qid;
  // Record the static owner of every task result.
  for (const auto& task : qs.tasks) {
    switch (task.kind) {
      case Task::Kind::Local:
      case Task::Kind::Join:
        // Join results land at the lhs owner.
        qs.rid_owner[task.rid] = task.owners[0];
        break;
      case Task::Kind::Combine:
      case Task::Kind::FinalCombine:
        break;  // decided when the task runs
    }
  }
  queries_[qid] = std::move(qs);
  run_next_task(sim, queries_[qid]);
}

void DlaNode::handle_aggregate_query(net::Transport& sim,
                                     const net::Message& msg) {
  net::Reader r(msg.payload);
  const std::uint64_t user_reqid = r.u64();
  Ticket ticket = Ticket::decode(r);
  std::string criterion = r.str();
  auto op = static_cast<AggOp>(r.u8());
  std::string attr = r.str();
  r.expect_end();
  if (query_is_duplicate(sim, msg.src, user_reqid)) return;

  auto reply_error = [&](const std::string& error) {
    net::Writer w;
    w.u64(user_reqid);
    w.boolean(false);
    w.str(error);
    w.f64(0.0);
    w.u64(0);
    reply_user(sim, msg.src, user_reqid, kAggregateResult, std::move(w));
  };
  if (!tickets_->authorizes(ticket, logm::Op::Read, sim.now())) {
    reply_error("ticket rejected");
    return;
  }
  if (op != AggOp::Count) {
    if (!cfg_->schema.contains(attr)) {
      reply_error("unknown aggregate attribute '" + attr + "'");
      return;
    }
    if (cfg_->schema.at(attr).type == logm::ValueType::Text) {
      reply_error("aggregate attribute '" + attr + "' is not numeric");
      return;
    }
  }
  QueryState qs;
  qs.user_reqid = user_reqid;
  qs.user = msg.src;
  qs.ticket = ticket;
  qs.is_aggregate = true;
  qs.agg_op = op;
  qs.agg_attr = attr;
  try {
    start_query(sim, std::move(qs), criterion);
  } catch (const ParseError& e) {
    reply_error(std::string("parse error: ") + e.what());
  }
}

void DlaNode::handle_aggregate_exec(net::Transport& sim,
                                    const net::Message& msg) {
  // This node owns the aggregate attribute: fold it over the glsn set and
  // return only the aggregate — raw values never leave this node.
  net::Reader r(msg.payload);
  std::uint64_t qid = r.u64();
  auto op = static_cast<AggOp>(r.u8());
  std::string attr = r.str();
  auto glsns = r.vec<logm::Glsn>([](net::Reader& in) { return in.u64(); });
  r.expect_end();

  double acc = 0.0;
  std::uint64_t present = 0;
  bool first = true;
  const logm::StorageEngine& source = engine_for({attr});
  for (logm::Glsn g : glsns) {
    const std::optional<logm::Fragment> frag = source.fetch(g);
    if (!frag) continue;
    auto it = frag->attrs.find(attr);
    if (it == frag->attrs.end()) continue;
    double v = it->second.as_real();
    ++present;
    switch (op) {
      case AggOp::Sum:
      case AggOp::Avg:
        acc += v;
        break;
      case AggOp::Max:
        acc = first ? v : std::max(acc, v);
        break;
      case AggOp::Min:
        acc = first ? v : std::min(acc, v);
        break;
      case AggOp::Count:
        break;
    }
    first = false;
  }
  if (op == AggOp::Avg && present > 0) acc /= static_cast<double>(present);
  net::Writer w;
  w.u64(qid);
  w.boolean(present > 0 || op == AggOp::Sum);
  w.f64(acc);
  w.u64(present);
  send_payload(sim, id(), msg.src, kAggregateValue, std::move(w));
}

void DlaNode::handle_aggregate_value(net::Transport& sim,
                                     const net::Message& msg) {
  net::Reader r(msg.payload);
  std::uint64_t qid = r.u64();
  bool ok = r.boolean();
  double value = r.f64();
  std::uint64_t count = r.u64();
  r.expect_end();
  auto it = queries_.find(qid);
  if (it == queries_.end()) return;
  QueryState& qs = it->second;
  sim.cancel_timer(qs.timeout_timer);
  timer_to_qid_.erase(qs.timeout_timer);
  net::Writer w;
  w.u64(qs.user_reqid);
  w.boolean(ok);
  w.str(ok ? "" : "no matching values for aggregate");
  w.f64(value);
  w.u64(count);
  reply_user(sim, qs.user, qs.user_reqid, kAggregateResult, std::move(w));
  queries_.erase(it);
}

void DlaNode::run_next_task(net::Transport& sim, QueryState& qs) {
  if (qs.next_task >= qs.tasks.size()) return;
  Task& task = qs.tasks[qs.next_task];
  switch (task.kind) {
    case Task::Kind::Local: {
      net::Writer w;
      w.u64(qs.qid);
      w.u64(task.rid);
      w.str(task.expr_text);
      w.boolean(task.count_only);
      send_payload(sim, id(), cfg_->dla_nodes[task.owners[0]], kSubqueryExec,
                   std::move(w));
      return;
    }
    case Task::Kind::Join: {
      // Shared transform for the batch (order-preserving for numerics,
      // hash-equality for text); the TTP never sees a, b.
      bool hash_mode =
          cfg_->schema.at(task.join_pred.lhs).type == logm::ValueType::Text;
      bn::BigUInt a(rng_.next_below((1u << 20) - 1) + 1);
      bn::BigUInt b(rng_.next_below(1ull << 32));
      if (hash_mode) {
        const bn::BigUInt& p = cfg_->shamir_prime;
        a = bn::BigUInt::random_below(rng_, p - bn::BigUInt(1)) + bn::BigUInt(1);
        b = bn::BigUInt::random_below(rng_, p);
      }
      for (int side = 0; side < 2; ++side) {
        net::Writer w;
        w.u64(qs.qid);
        w.u64(task.rid);
        w.u8(static_cast<std::uint8_t>(side));
        w.str(task.join_pred.lhs);
        w.u8(static_cast<std::uint8_t>(task.join_pred.op));
        w.str(task.join_pred.rhs_attr);
        w.u8(hash_mode ? 1 : 0);
        w.big(a);
        w.big(b);
        w.u32(cfg_->dla_nodes[task.owners[0]]);
        send_payload(sim, id(), cfg_->dla_nodes[task.owners[side]], kJoinExec,
                     std::move(w));
      }
      return;
    }
    case Task::Kind::Combine:
    case Task::Kind::FinalCombine: {
      // Group inputs by their owner node.
      std::map<std::size_t, std::vector<std::uint64_t>> by_owner;
      for (std::uint64_t child : task.child_rids) {
        by_owner[qs.rid_owner.at(child)].push_back(child);
      }
      task.owners.clear();
      for (const auto& [owner, rids] : by_owner) task.owners.push_back(owner);
      bool is_final = task.kind == Task::Kind::FinalCombine;
      if (is_final && task.child_rids.size() == 1 && by_owner.size() == 1) {
        // Single-subquery query: fetch the result set directly.
        std::size_t owner = task.owners[0];
        if (owner == index_) {
          // Consume the staged set like the remote kSubqueryFetch path
          // does, or the entry outlives the query.
          auto it = result_sets_.find(task.child_rids[0]);
          std::vector<logm::Glsn> glsns;
          if (it != result_sets_.end()) {
            glsns = std::move(it->second);
            result_sets_.erase(it);
          }
          finish_query(sim, qs, std::move(glsns));
          return;
        }
        net::Writer w;
        w.u64(qs.qid);
        w.u64(task.child_rids[0]);
        send_payload(sim, id(), cfg_->dla_nodes[owner], kSubqueryFetch,
                     std::move(w));
        return;
      }
      if (by_owner.size() == 1 && !is_final) {
        // All inputs already live on one node: it merges locally.
        qs.rid_owner[task.rid] = task.owners[0];
        net::Writer w;
        w.u64(qs.qid);
        w.u64(task.rid);
        w.boolean(task.combine_and);
        w.vec(by_owner.begin()->second,
              [](net::Writer& out, std::uint64_t rid) { out.u64(rid); });
        w.boolean(false);  // multi_owner
        w.boolean(false);  // is_final
        send_payload(sim, id(), cfg_->dla_nodes[task.owners[0]], kCombineExec,
                     std::move(w));
        return;
      }
      // Cross-owner combine: each owner pre-merges its inputs, stages them
      // for the secure set protocol, and the gateway (this node) observes
      // the result.
      qs.rid_owner[task.rid] = index_;
      qs.ready_pending.clear();
      for (const auto& [owner, rids] : by_owner) {
        qs.ready_pending.insert(owner);
        net::Writer w;
        w.u64(qs.qid);
        w.u64(task.rid);
        w.boolean(task.combine_and);
        w.vec(rids, [](net::Writer& out, std::uint64_t rid) { out.u64(rid); });
        w.boolean(true);  // multi_owner -> stage for set protocol
        w.boolean(is_final);
        send_payload(sim, id(), cfg_->dla_nodes[owner], kCombineExec,
                     std::move(w));
      }
      return;
    }
  }
}

void DlaNode::handle_subquery_exec(net::Transport& sim,
                                   const net::Message& msg) {
  net::Reader r(msg.payload);
  std::uint64_t qid = r.u64();
  std::uint64_t rid = r.u64();
  // Each task rid executes exactly once: a duplicate kSubqueryExec arriving
  // after the result was fetched would repopulate result_sets_ forever.
  if (task_rid_guard_.check_and_mark(rid)) {
    ++replay_drops_;
    return;
  }
  std::string expr_text = r.str();
  bool count_only = r.boolean();
  r.expect_end();
  Expr expr = parse(expr_text, cfg_->schema);
  std::vector<logm::Glsn> hits = eval_local(expr);
  std::uint32_t size = static_cast<std::uint32_t>(hits.size());
  if (!count_only) {
    // Secret counting keeps the glsn set out of every store, including
    // this node's result buffer.
    result_sets_[rid] = std::move(hits);
  }
  net::Writer w;
  w.u64(qid);
  w.u64(rid);
  w.u32(size);
  send_payload(sim, id(), msg.src, kSubqueryDone, std::move(w));
}

void DlaNode::handle_join_exec(net::Transport& sim, const net::Message& msg) {
  net::Reader r(msg.payload);
  std::uint64_t qid = r.u64();
  std::uint64_t rid = r.u64();
  // One batch per side per rid: a replayed kJoinExec would feed the TTP a
  // second batch for a comparison it may already have served.
  if (task_rid_guard_.check_and_mark(rid)) {
    ++replay_drops_;
    return;
  }
  std::uint8_t side = r.u8();
  std::string lhs_attr = r.str();
  auto op = static_cast<CmpOp>(r.u8());
  std::string rhs_attr = r.str();
  bool hash_mode = r.u8() != 0;
  bn::BigUInt a = r.big();
  bn::BigUInt b = r.big();
  net::NodeId result_owner = r.u32();
  r.expect_end();

  const std::string& attr = side == 0 ? lhs_attr : rhs_attr;
  const bn::BigUInt& p = cfg_->shamir_prime;
  net::Writer w;
  w.u64(rid);
  w.u64(qid);
  w.u8(side);
  w.u8(static_cast<std::uint8_t>(op));
  w.u32(result_owner);
  w.u32(msg.src);  // gateway to notify on completion
  std::vector<CmpBatchEntry> entries;
  engine_for({attr}).for_each([&](const logm::Fragment& frag) {
    auto it = frag.attrs.find(attr);
    if (it == frag.attrs.end()) return;
    bn::BigUInt w_value;
    if (hash_mode) {
      bn::BigUInt y = hash_key(it->second, p);
      w_value = (bn::BigUInt::mulmod(a, y, p) + b) % p;
    } else {
      w_value = a * order_key(it->second) + b;
    }
    entries.push_back(CmpBatchEntry{frag.glsn, std::move(w_value)});
  });
  w.vec(entries, [](net::Writer& out, const CmpBatchEntry& e) {
    out.u64(e.glsn);
    out.big(e.w);
  });
  send_payload(sim, id(), cfg_->ttp, kCmpBatch, std::move(w));
}

void DlaNode::handle_cmp_batch_result(net::Transport& sim,
                                      const net::Message& msg) {
  net::Reader r(msg.payload);
  std::uint64_t rid = r.u64();
  std::uint64_t qid = r.u64();
  if (batch_result_guard_.check_and_mark(rid)) {
    ++replay_drops_;
    return;
  }
  net::NodeId gateway = r.u32();
  auto glsns =
      r.vec<logm::Glsn>([](net::Reader& in) { return in.u64(); });
  r.expect_end();
  sort_unique(glsns);
  result_sets_[rid] = std::move(glsns);
  net::Writer w;
  w.u64(qid);
  w.u64(rid);
  w.u32(static_cast<std::uint32_t>(result_sets_[rid].size()));
  send_payload(sim, id(), gateway, kSubqueryDone, std::move(w));
}

void DlaNode::handle_combine_exec(net::Transport& sim,
                                  const net::Message& msg) {
  net::Reader r(msg.payload);
  std::uint64_t qid = r.u64();
  std::uint64_t rid = r.u64();
  // A replayed kCombineExec finds its inputs already consumed and would
  // overwrite the staged result with an empty merge.
  if (task_rid_guard_.check_and_mark(rid)) {
    ++replay_drops_;
    return;
  }
  bool and_op = r.boolean();
  auto input_rids =
      r.vec<std::uint64_t>([](net::Reader& in) { return in.u64(); });
  bool multi_owner = r.boolean();
  r.boolean();  // is_final: only meaningful at the gateway
  r.expect_end();

  // Merge this node's input sets under the combine operation.
  std::vector<logm::Glsn> merged;
  bool first = true;
  for (std::uint64_t input : input_rids) {
    auto it = result_sets_.find(input);
    std::vector<logm::Glsn> set =
        it == result_sets_.end() ? std::vector<logm::Glsn>{} : it->second;
    if (first) {
      merged = std::move(set);
      first = false;
    } else {
      merged = and_op ? logm::intersect_sorted(merged, set)
                      : logm::union_sorted(merged, set);
    }
    result_sets_.erase(input);
  }

  if (!multi_owner) {
    result_sets_[rid] = std::move(merged);
    net::Writer w;
    w.u64(qid);
    w.u64(rid);
    w.u32(static_cast<std::uint32_t>(result_sets_[rid].size()));
    send_payload(sim, id(), msg.src, kSubqueryDone, std::move(w));
    return;
  }
  // Stage the merged set as this node's private input for the secure set
  // protocol keyed by rid, then tell the gateway we are ready.
  std::vector<bn::BigUInt> elements;
  elements.reserve(merged.size());
  for (logm::Glsn g : merged) {
    elements.push_back(encode_glsn_element(g, ""));
  }
  stage_set_input(rid, std::move(elements));
  net::Writer w;
  w.u64(qid);
  w.u64(rid);
  send_payload(sim, id(), msg.src, kCombineReady, std::move(w));
}

void DlaNode::handle_combine_ready(net::Transport& sim,
                                   const net::Message& msg) {
  net::Reader r(msg.payload);
  std::uint64_t qid = r.u64();
  std::uint64_t rid = r.u64();
  r.expect_end();
  auto qit = queries_.find(qid);
  if (qit == queries_.end()) return;
  QueryState& qs = qit->second;
  Task& task = qs.tasks[qs.next_task];
  if (task.rid != rid) return;
  // The combine's set protocol is launched exactly once, when the LAST
  // ready arrives; a duplicate of that last ready must not relaunch it.
  if (pending_combines_.contains(rid)) {
    ++replay_drops_;
    return;
  }
  qs.ready_pending.erase(cfg_->index_of(msg.src));
  if (!qs.ready_pending.empty()) return;

  bool is_final = task.kind == Task::Kind::FinalCombine;
  SetSpec spec;
  spec.session = rid;
  spec.op = task.combine_and ? SetOp::Intersect : SetOp::Union;
  spec.purpose = SetPurpose::Combine;
  for (std::size_t owner : task.owners) {
    spec.participants.push_back(cfg_->dla_nodes[owner]);
  }
  spec.collector = spec.participants[0];
  // The gateway (this node) always observes combine results; intermediate
  // sets stay inside the cluster, and only the final, ACL-filtered glsn set
  // leaves it.
  spec.observers = {id()};
  pending_combines_[rid] = PendingCombine{qid, id(), is_final};
  start_set_protocol(sim, spec);
}

void DlaNode::handle_subquery_done(net::Transport& sim,
                                   const net::Message& msg) {
  net::Reader r(msg.payload);
  std::uint64_t qid = r.u64();
  std::uint64_t rid = r.u64();
  std::uint32_t size = r.u32();
  r.expect_end();
  auto it = queries_.find(qid);
  if (it == queries_.end()) return;
  QueryState& qs = it->second;
  // Stale or duplicate notification for a task that is not current.
  if (qs.next_task >= qs.tasks.size() || qs.tasks[qs.next_task].rid != rid) {
    return;
  }
  if (qs.tasks[qs.next_task].count_only) {
    // Secret counting: the size IS the answer; no glsn set exists anywhere.
    sim.cancel_timer(qs.timeout_timer);
    timer_to_qid_.erase(qs.timeout_timer);
    net::Writer w;
    w.u64(qs.user_reqid);
    w.boolean(true);
    w.str("");
    w.f64(static_cast<double>(size));
    w.u64(size);
    reply_user(sim, qs.user, qs.user_reqid, kAggregateResult, std::move(w));
    queries_.erase(it);
    return;
  }
  task_completed(sim, qid);
}

void DlaNode::task_completed(net::Transport& sim, std::uint64_t qid) {
  auto it = queries_.find(qid);
  if (it == queries_.end()) return;
  QueryState& qs = it->second;
  ++qs.next_task;
  if (qs.next_task < qs.tasks.size()) {
    run_next_task(sim, qs);
  }
  // The FinalCombine task completes through finish_query instead.
}

void DlaNode::handle_subquery_fetch(net::Transport& sim,
                                    const net::Message& msg) {
  net::Reader r(msg.payload);
  std::uint64_t qid = r.u64();
  std::uint64_t rid = r.u64();
  r.expect_end();
  // Serve each fetch once: the first reply consumes the staged set, so a
  // duplicate would ship an empty set that clobbers the real result.
  if (fetch_served_guard_.check_and_mark(rid)) {
    ++replay_drops_;
    return;
  }
  auto it = result_sets_.find(rid);
  std::vector<logm::Glsn> glsns =
      it == result_sets_.end() ? std::vector<logm::Glsn>{} : it->second;
  result_sets_.erase(rid);
  net::Writer w;
  w.u64(qid);
  w.u64(rid);
  w.vec(glsns, [](net::Writer& out, logm::Glsn g) { out.u64(g); });
  send_payload(sim, id(), msg.src, kSubqueryData, std::move(w));
}

void DlaNode::handle_subquery_data(net::Transport& sim,
                                   const net::Message& msg) {
  net::Reader r(msg.payload);
  std::uint64_t qid = r.u64();
  r.u64();  // rid
  auto glsns = r.vec<logm::Glsn>([](net::Reader& in) { return in.u64(); });
  r.expect_end();
  auto it = queries_.find(qid);
  if (it == queries_.end()) return;
  finish_query(sim, it->second, std::move(glsns));
}

void DlaNode::finish_query(net::Transport& sim, QueryState& qs,
                           std::vector<logm::Glsn> glsns) {
  // The deferred paths (value aggregates, threshold certification) retain
  // the query state, so a duplicated final message could re-enter here and
  // launch a second aggregate or signing round for the same query.
  if (qs.finishing) {
    ++replay_drops_;
    return;
  }
  qs.finishing = true;
  sort_unique(glsns);
  if (!qs.ticket.auditor) {
    // User-scope tickets only see their own audit trail (Table 6 ACL).
    std::set<logm::Glsn> allowed = acl_.glsns_of(qs.ticket.id);
    std::erase_if(glsns, [&](logm::Glsn g) { return !allowed.contains(g); });
  }
  if (qs.is_aggregate) {
    if (qs.agg_op == AggOp::Count) {
      sim.cancel_timer(qs.timeout_timer);
      timer_to_qid_.erase(qs.timeout_timer);
      net::Writer w;
      w.u64(qs.user_reqid);
      w.boolean(true);
      w.str("");
      w.f64(static_cast<double>(glsns.size()));
      w.u64(glsns.size());
      reply_user(sim, qs.user, qs.user_reqid, kAggregateResult, std::move(w));
      queries_.erase(qs.qid);
      return;
    }
    // Value aggregate: delegate to the attribute's owner, which replies
    // with the aggregate only (handle_aggregate_value relays to the user).
    std::size_t owner = owner_for(qs.agg_attr, sim.now());
    net::Writer w;
    w.u64(qs.qid);
    w.u8(static_cast<std::uint8_t>(qs.agg_op));
    w.str(qs.agg_attr);
    w.vec(glsns, [](net::Writer& out, logm::Glsn g) { out.u64(g); });
    send_payload(sim, id(), cfg_->dla_nodes[owner], kAggregateExec,
                 std::move(w));
    return;  // query state retained until the aggregate value returns
  }
  // Threshold certification: when the cluster has a shared signing key,
  // collect a (k, n) Schnorr signature over the report before replying —
  // the user can then prove k nodes vouched for this exact result.
  if (cfg_->threshold_params.has_value() && signing_share_.has_value() &&
      cfg_->sign_threshold_k >= 1 &&
      cfg_->sign_threshold_k <= cfg_->cluster_size()) {
    SignState st;
    st.qid = qs.qid;
    st.glsns = glsns;
    st.message = report_message(qs.user_reqid, glsns);
    for (std::uint32_t i = 1; i <= cfg_->sign_threshold_k; ++i) {
      st.signer_set.push_back(i);
    }
    SessionId sid = qs.qid;
    sign_state_[sid] = std::move(st);
    for (std::uint32_t i : sign_state_[sid].signer_set) {
      net::Writer w;
      w.u64(sid);
      w.str(sign_state_[sid].message);
      send_payload(sim, id(), cfg_->dla_nodes[i - 1], kSignRequest,
                   std::move(w));
    }
    return;  // reply deferred until the co-signature completes
  }
  reply_with_result(sim, qs, glsns, std::nullopt);
  queries_.erase(qs.qid);
}

void DlaNode::reply_with_result(
    net::Transport& sim, const QueryState& qs,
    const std::vector<logm::Glsn>& glsns,
    const std::optional<crypto::ThresholdSignature>& cert) {
  sim.cancel_timer(qs.timeout_timer);
  timer_to_qid_.erase(qs.timeout_timer);
  net::Writer w;
  w.u64(qs.user_reqid);
  w.boolean(true);
  w.str("");
  w.vec(glsns, [](net::Writer& out, logm::Glsn g) { out.u64(g); });
  w.boolean(cert.has_value());
  if (cert.has_value()) {
    w.big(cert->r);
    w.big(cert->s);
  }
  reply_user(sim, qs.user, qs.user_reqid, kAuditResult, std::move(w));
}

// --------------------------------------- distributed key generation -------

void DlaNode::start_dkg(net::Transport& sim, SessionId session,
                        std::uint32_t k) {
  if (k == 0 || k > cfg_->cluster_size())
    throw std::invalid_argument("start_dkg: bad threshold");
  for (net::NodeId node : cfg_->dla_nodes) {
    net::Writer w;
    w.u64(session);
    w.u32(k);
    send_payload(sim, id(), node, kDkgStart, std::move(w));
  }
}

void DlaNode::handle_dkg_start(net::Transport& sim, const net::Message& msg) {
  net::Reader r(msg.payload);
  SessionId session = r.u64();
  std::uint32_t k = r.u32();
  r.expect_end();
  if (dkg_done_guard_.contains(session)) {
    ++replay_drops_;
    return;
  }
  DkgState& st = dkg_state_[session];
  st.k = k;
  if (st.dealt) return;  // duplicate start
  st.dealt = true;

  // Deal a random secret with Feldman VSS to every cluster member.
  crypto::DkgGroup group = crypto::DkgGroup::fixed256();
  bn::BigUInt z = bn::BigUInt::random_below(rng_, group.q);
  auto dealing =
      crypto::feldman_deal(group, z, k, cfg_->cluster_size(), rng_);
  std::uint32_t my_index = static_cast<std::uint32_t>(index_ + 1);
  for (net::NodeId node : cfg_->dla_nodes) {
    net::Writer w;
    w.u64(session);
    w.u32(my_index);
    encode_elements(w, dealing.commitments);
    send_payload(sim, id(), node, kDkgCommit, std::move(w));
  }
  for (std::size_t j = 0; j < cfg_->cluster_size(); ++j) {
    bn::BigUInt share = dealing.shares[j];
    if (dkg_corrupt_ && j == cfg_->cluster_size() - 1) {
      share = (share + bn::BigUInt(1)) % group.q;
    }
    net::Writer w;
    w.u64(session);
    w.u32(my_index);
    w.big(share);
    send_payload(sim, id(), cfg_->dla_nodes[j], kDkgShare, std::move(w));
  }
  maybe_finish_dkg(sim, session);
}

void DlaNode::handle_dkg_commit(net::Transport& sim,
                                const net::Message& msg) {
  net::Reader r(msg.payload);
  SessionId session = r.u64();
  std::uint32_t dealer = r.u32();
  std::vector<bn::BigUInt> commitments = decode_elements(r);
  r.expect_end();
  if (dkg_done_guard_.contains(session)) {
    ++replay_drops_;
    return;
  }
  dkg_state_[session].commitments[dealer] = std::move(commitments);
  maybe_finish_dkg(sim, session);
}

void DlaNode::handle_dkg_share(net::Transport& sim, const net::Message& msg) {
  net::Reader r(msg.payload);
  SessionId session = r.u64();
  std::uint32_t dealer = r.u32();
  bn::BigUInt share = r.big();
  r.expect_end();
  if (dkg_done_guard_.contains(session)) {
    ++replay_drops_;
    return;
  }
  dkg_state_[session].shares[dealer] = std::move(share);
  maybe_finish_dkg(sim, session);
}

void DlaNode::maybe_finish_dkg(net::Transport& sim, SessionId session) {
  (void)sim;
  DkgState& st = dkg_state_[session];
  const std::size_t n = cfg_->cluster_size();
  if (st.done || st.k == 0 || st.commitments.size() < n ||
      st.shares.size() < n) {
    return;
  }
  st.done = true;

  crypto::DkgGroup group = crypto::DkgGroup::fixed256();
  std::uint32_t my_index = static_cast<std::uint32_t>(index_ + 1);
  DkgResult result;
  std::vector<bn::BigUInt> verified_shares;
  std::vector<bn::BigUInt> constant_terms;
  for (std::uint32_t dealer = 1; dealer <= n; ++dealer) {
    const auto& commitments = st.commitments.at(dealer);
    const auto& share = st.shares.at(dealer);
    if (commitments.size() != st.k ||
        !crypto::feldman_verify(group, commitments, my_index, share)) {
      result.bad_dealers.push_back(dealer);
      continue;
    }
    verified_shares.push_back(share);
    constant_terms.push_back(commitments[0]);
  }
  if (result.bad_dealers.empty()) {
    result.ok = true;
    result.params = crypto::dkg_params(
        group, crypto::dkg_public_key(group, constant_terms));
    result.share = crypto::SignerShare{
        my_index, crypto::dkg_combine_shares(group, verified_shares)};
  }
  dkg_state_.erase(session);
  dkg_done_guard_.insert(session);
  if (on_dkg_result) on_dkg_result(session, result);
}

// ------------------------------------------- threshold certification ------

void DlaNode::handle_sign_request(net::Transport& sim,
                                  const net::Message& msg) {
  if (!cfg_->threshold_params || !signing_share_) return;
  net::Reader r(msg.payload);
  SessionId sid = r.u64();
  // A duplicate request must not mint a second nonce: the coordinator
  // combined the first commitment, and signing with a different k under
  // that R would produce an invalid signature.
  if (sign_nonces_.contains(sid) || sign_served_guard_.contains(sid)) {
    ++replay_drops_;
    return;
  }
  r.str();  // message text (the response binds only via the challenge)
  r.expect_end();
  crypto::NoncePair nonce = crypto::make_nonce(*cfg_->threshold_params, rng_);
  sign_nonces_[sid] = nonce.k;
  net::Writer w;
  w.u64(sid);
  w.u32(static_cast<std::uint32_t>(index_ + 1));
  w.big(nonce.r);
  send_payload(sim, id(), msg.src, kSignNonce, std::move(w));
}

void DlaNode::handle_sign_nonce(net::Transport& sim, const net::Message& msg) {
  net::Reader r(msg.payload);
  SessionId sid = r.u64();
  std::uint32_t index = r.u32();
  bn::BigUInt nonce_r = r.big();
  r.expect_end();
  auto it = sign_state_.find(sid);
  if (it == sign_state_.end() || it->second.challenged) return;
  SignState& st = it->second;
  st.nonces[index] = std::move(nonce_r);
  if (st.nonces.size() < st.signer_set.size()) return;
  st.challenged = true;
  std::vector<bn::BigUInt> rs;
  rs.reserve(st.nonces.size());
  for (const auto& [idx, ri] : st.nonces) rs.push_back(ri);
  st.r = crypto::combine_commitments(*cfg_->threshold_params, rs);
  st.c = crypto::challenge(*cfg_->threshold_params, st.r, st.message);
  for (std::uint32_t idx : st.signer_set) {
    bn::BigUInt lambda =
        crypto::lagrange_at_zero(*cfg_->threshold_params, st.signer_set, idx);
    net::Writer w;
    w.u64(sid);
    w.big(st.c);
    w.big(lambda);
    send_payload(sim, id(), cfg_->dla_nodes[idx - 1], kSignChallenge,
                 std::move(w));
  }
}

void DlaNode::handle_sign_challenge(net::Transport& sim,
                                    const net::Message& msg) {
  if (!cfg_->threshold_params || !signing_share_) return;
  net::Reader r(msg.payload);
  SessionId sid = r.u64();
  bn::BigUInt c = r.big();
  bn::BigUInt lambda = r.big();
  r.expect_end();
  auto it = sign_nonces_.find(sid);
  if (it == sign_nonces_.end()) return;
  bn::BigUInt s = crypto::response_share(*cfg_->threshold_params,
                                         *signing_share_, it->second, c,
                                         lambda);
  sign_nonces_.erase(it);
  sign_served_guard_.insert(sid);
  net::Writer w;
  w.u64(sid);
  w.u32(static_cast<std::uint32_t>(index_ + 1));
  w.big(s);
  send_payload(sim, id(), msg.src, kSignShare, std::move(w));
}

void DlaNode::handle_sign_share(net::Transport& sim, const net::Message& msg) {
  net::Reader r(msg.payload);
  SessionId sid = r.u64();
  std::uint32_t signer = r.u32();
  bn::BigUInt s = r.big();
  r.expect_end();
  auto it = sign_state_.find(sid);
  if (it == sign_state_.end()) return;
  SignState& st = it->second;
  // Count each signer once: a duplicated share would fill the threshold
  // with k-1 distinct responses and combine into garbage.
  if (!st.share_from.insert(signer).second) {
    ++replay_drops_;
    return;
  }
  st.s_shares.push_back(std::move(s));
  if (st.s_shares.size() < st.signer_set.size()) return;
  crypto::ThresholdSignature sig =
      crypto::combine_signature(*cfg_->threshold_params, st.r, st.s_shares);
  auto qit = queries_.find(st.qid);
  if (qit != queries_.end()) {
    // Self-check before publishing: a Byzantine signer's bad share must
    // not reach the user as a "certified" report.
    bool valid =
        crypto::verify_threshold(*cfg_->threshold_params, st.message, sig);
    reply_with_result(sim, qit->second, st.glsns,
                      valid ? std::optional<crypto::ThresholdSignature>(sig)
                            : std::nullopt);
    queries_.erase(qit);
  }
  sign_state_.erase(it);
}

void DlaNode::fail_query(net::Transport& sim, QueryState& qs,
                         const std::string& error) {
  sim.cancel_timer(qs.timeout_timer);
  timer_to_qid_.erase(qs.timeout_timer);
  net::Writer w;
  w.u64(qs.user_reqid);
  w.boolean(false);
  w.str(error);
  if (qs.is_aggregate) {
    w.f64(0.0);
    w.u64(0);
    reply_user(sim, qs.user, qs.user_reqid, kAggregateResult, std::move(w));
  } else {
    w.vec(std::vector<logm::Glsn>{},
          [](net::Writer& out, logm::Glsn g) { out.u64(g); });
    w.boolean(false);  // no certificate
    reply_user(sim, qs.user, qs.user_reqid, kAuditResult, std::move(w));
  }
  queries_.erase(qs.qid);
}

}  // namespace dla::audit
