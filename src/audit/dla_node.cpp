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

// True when every element lies in [1, p-1], the only inputs a PhKey accepts:
// a ring frame carrying anything else would make encrypt_batch or
// decrypt_batch throw out of the handler.
bool in_ph_group(const crypto::PhDomain& domain,
                 const std::vector<bn::BigUInt>& elements) {
  return std::all_of(elements.begin(), elements.end(),
                     [&](const bn::BigUInt& e) {
                       return !e.is_zero() && e < domain.p;
                     });
}

// `elements` as a ring stream of chunks of `size`, the last one ragged.
// Always at least one chunk: an empty set is one empty chunk, and a set no
// larger than `size`, or any set when `size` is 0, is one whole chunk.
std::vector<std::vector<bn::BigUInt>> split_chunks(
    std::vector<bn::BigUInt> elements, std::size_t size) {
  std::vector<std::vector<bn::BigUInt>> chunks;
  std::size_t begin = 0;
  do {
    const std::size_t end = size == 0
                                ? elements.size()
                                : std::min(begin + size, elements.size());
    chunks.emplace_back(std::make_move_iterator(elements.begin() + begin),
                        std::make_move_iterator(elements.begin() + end));
    begin = end;
  } while (begin < elements.size());
  return chunks;
}

}  // namespace

DlaNode::DlaNode(std::string name, std::uint64_t seed)
    : name_(std::move(name)), rng_(seed) {}

void DlaNode::configure(ConfigPtr cfg, std::size_t index) {
  cfg_ = std::move(cfg);
  index_ = index;
  tickets_.emplace(cfg_->ticket_key);
  accum_stepper_.emplace(cfg_->accum_params, cfg_->cluster_size());
  signer_set_.clear();
  signer_lambdas_.clear();
  if (cfg_->threshold_params.has_value() && cfg_->sign_threshold_k >= 1 &&
      cfg_->sign_threshold_k <= cfg_->cluster_size()) {
    for (std::uint32_t i = 1; i <= cfg_->sign_threshold_k; ++i) {
      signer_set_.push_back(i);
    }
    signer_lambdas_ =
        crypto::lagrange_coefficients(*cfg_->threshold_params, signer_set_);
  }
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
    case kGlsnReply: return handle_glsn_reply(sim, msg);
    case kLogFragment: return handle_log_fragment(sim, msg);
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
    case kJoinExec: return handle_join_exec(sim, msg);
    case kCombineExec: return handle_combine_exec(sim, msg);
    case kSubqueryDone: return handle_subquery_done(sim, msg);
    case kCmpBatchResult: return handle_cmp_batch_result(sim, msg);
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
  if (pending == pending_glsn_.end()) return;
  // Leader unresponsive: retry against the next cluster member.
  pending->second.leader_attempt =
      (pending->second.leader_attempt + 1) % cfg_->cluster_size();
  forward_glsn(sim, gid);
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
  if (const logm::Glsn* served = glsn_request_journal_.find(journal_key)) {
    ++replay_drops_;
    if (*served != 0) {
      net::Writer w;
      w.u64(reqid);
      w.u64(*served);
      send_payload(sim, id(), msg.src, kGlsnReply, std::move(w));
    }
    return;
  }
  std::uint64_t gid = (static_cast<std::uint64_t>(id()) << 40) | next_gid_++;
  glsn_request_journal_.insert(journal_key, 0);
  pending_glsn_[gid] = PendingGlsn{msg.src, reqid};
  forward_glsn(sim, gid);
}

void DlaNode::forward_glsn(net::Transport& sim, std::uint64_t gid) {
  PendingGlsn& pending = pending_glsn_.at(gid);
  net::Writer w;
  w.u64(gid);
  w.u32(id());
  send_payload(sim, id(), cfg_->dla_nodes[pending.leader_attempt],
               kGlsnForward, std::move(w));
  pending.timer = sim.set_timer(id(), kGlsnTimeout);
  timer_to_gid_[pending.timer] = gid;
}

void DlaNode::handle_glsn_forward(net::Transport& sim,
                                  const net::Message& msg) {
  net::Reader r(msg.payload);
  std::uint64_t reqid = r.u64();
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
  // Act as leader, above every value this node proposed or promised: a
  // failover leader's own counter lags what the old leader got promised.
  propose_glsn(sim, last_promised_, gateway, reqid);
}

void DlaNode::propose_glsn(net::Transport& sim, logm::Glsn floor,
                           net::NodeId reply_to, std::uint64_t reqid) {
  // The counter moves at proposal time, so a forward that arrives before
  // this round's votes gets the next value instead of a duplicate proposal.
  glsn_counter_ = std::max(glsn_counter_, floor) + 1;
  std::uint64_t proposal_id =
      (static_cast<std::uint64_t>(id()) << 40) | next_proposal_id_++;
  GlsnRound& round = glsn_rounds_[proposal_id];
  round.proposal = glsn_counter_;
  round.reply_to = reply_to;
  round.reqid = reqid;
  for (net::NodeId replica : cfg_->dla_nodes) {
    net::Writer w;
    w.u64(proposal_id);
    w.u64(glsn_counter_);
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
  if (it == glsn_rounds_.end()) return;
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
    // A majority promised this value, and any later majority shares a
    // replica with it, so no proposal at or below it can win again: the
    // replicas need no commit message to keep glsns unique.
    forwards_in_flight_.erase(round.reqid);
    forward_journal_.insert(round.reqid, round.proposal);
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
    const logm::Glsn floor = std::max(round.highest_hint, round.proposal);
    const net::NodeId reply_to = round.reply_to;
    const std::uint64_t reqid = round.reqid;
    glsn_rounds_.erase(it);
    propose_glsn(sim, floor, reply_to, reqid);
  }
}

void DlaNode::handle_glsn_reply(net::Transport& sim, const net::Message& msg) {
  // Gateway leg: relay the assigned glsn to the waiting user, translating
  // the gateway-local id back into the user's own request id.
  net::Reader r(msg.payload);
  std::uint64_t gid = r.u64();
  logm::Glsn glsn = r.u64();
  r.expect_end();
  auto it = pending_glsn_.find(gid);
  if (it == pending_glsn_.end()) return;
  sim.cancel_timer(it->second.timer);
  timer_to_gid_.erase(it->second.timer);
  if (logm::Glsn* served = glsn_request_journal_.find(
          {it->second.user, it->second.user_reqid})) {
    *served = glsn;
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
  // The record's accumulator digest (Section 4.1). Every node receives one
  // upload per write, empty fragments included, so every node gets it.
  bn::BigUInt deposit = r.big();
  r.expect_end();
  const logm::Glsn glsn = fragment.glsn;
  // Tombstone: glsns are never reused, so an upload for a deleted glsn is a
  // late duplicate or a replay and must not resurrect the record.
  if (deleted_glsns_.contains(glsn)) {
    ++replay_drops_;
    return;
  }
  // A Write ticket vouches neither for the bytes nor for someone else's
  // record: refuse values outside the schema before they reach the store
  // and its indexes, and refuse a glsn this node already holds unless this
  // ticket stored it. Both stores count, or a replica-flagged upload would
  // earn the ACL entry that unlocks the primary copy. The owner's own
  // duplicates stay idempotent.
  const bool held = engine_->contains(glsn) || replica_engine_->contains(glsn);
  bool ok = tickets_->authorizes(ticket, logm::Op::Write, sim.now()) &&
            cfg_->schema.admits(fragment.attrs) &&
            (!held || acl_.allowed(ticket.id, logm::Op::Write, glsn));
  if (ok) {
    (is_replica ? *replica_engine_ : *engine_).put(std::move(fragment));
    deposits_[glsn] = std::move(deposit);
    acl_.grant(ticket.id, ticket.ops);
    acl_.authorize(ticket.id, glsn);
  }
  net::Writer w;
  w.u64(glsn);
  w.boolean(ok);
  w.u32(copy_seq);
  send_payload(sim, id(), msg.src, kLogAck, std::move(w));
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
      // Tombstone: a late duplicate of the original upload must not
      // resurrect the record (see handle_log_fragment).
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

std::vector<bn::BigUInt> DlaNode::ChunkStream::take() {
  std::vector<bn::BigUInt> out;
  for (auto& [seq, chunk] : chunks) {
    (void)seq;
    out.insert(out.end(), std::make_move_iterator(chunk.begin()),
               std::make_move_iterator(chunk.end()));
  }
  return out;
}

std::vector<bn::BigUInt>* DlaNode::accept_chunk(ChunkStream& stream,
                                                const SetChunkHeader& header) {
  if (stream.complete()) {
    ++replay_drops_;  // the whole stream already arrived
    return nullptr;
  }
  if (stream.n_chunks == 0) {
    stream.n_chunks = header.n_chunks;
  } else if (stream.n_chunks != header.n_chunks) {
    ++set_ring_rejects_;  // frames disagree on the stream's length
    return nullptr;
  }
  auto [slot, fresh] = stream.chunks.try_emplace(header.chunk_seq);
  if (!fresh) {
    ++replay_drops_;
    return nullptr;
  }
  return &slot->second;
}

std::optional<DlaNode::RingFrame> DlaNode::read_ring_frame(
    const net::Message& msg) {
  net::Reader r(msg.payload);
  RingFrame frame;
  frame.spec = SetSpec::decode(r);
  frame.header = SetChunkHeader::decode(r);
  if (msg.type != kSetFull) frame.hops = r.u32();
  frame.elements = decode_elements(r);
  r.expect_end();
  // `origin` keys the collector's streams and `hops` indexes participants
  // on forward, so a corrupted or cross-ring-replayed frame dies here, not
  // out of bounds downstream. An element outside [1, p-1] would make the
  // PhKey throw: it is refused before a ring hop mints its session key and
  // before a decrypt hop files the chunk.
  const std::size_t n = frame.spec.participants.size();
  const std::uint32_t ring_id =
      msg.type == kSetDecrypt ? kRingDecrypt : kRingEncrypt;
  if (frame.header.ring_id != ring_id || frame.header.origin >= n ||
      frame.hops >= n || frame.header.chunk_seq >= frame.header.n_chunks ||
      !in_ph_group(cfg_->ph_domain, frame.elements)) {
    ++set_ring_rejects_;
    return std::nullopt;
  }
  return frame;
}

void DlaNode::send_ring_frame(net::Transport& sim, std::uint32_t type,
                              net::NodeId dst, const SetSpec& spec,
                              const SetChunkHeader& header, std::uint32_t hops,
                              const std::vector<bn::BigUInt>& elements) {
  net::Writer w;
  spec.encode(w);
  header.encode(w);
  if (type != kSetFull) w.u32(hops);
  encode_elements(w, elements);
  send_payload(sim, id(), dst, type, std::move(w));
}

void DlaNode::stage_set_input(SessionId session,
                              std::vector<bn::BigUInt> elements) {
  sort_unique(elements);
  set_inputs_[session] = std::move(elements);
}

void DlaNode::start_set_protocol(net::Transport& sim, const SetSpec& spec) {
  for (net::NodeId p : spec.participants) {
    net::Writer w;
    spec.encode(w);
    send_payload(sim, id(), p, kSetStart, std::move(w));
  }
}

void DlaNode::handle_set_start(net::Transport& sim, const net::Message& msg) {
  net::Reader r(msg.payload);
  SetSpec spec = SetSpec::decode(r);
  r.expect_end();
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
  join_ring(sim, spec, std::move(elements));
}

void DlaNode::join_ring(net::Transport& sim, const SetSpec& spec,
                        std::vector<bn::BigUInt> elements) {
  // At-least-once delivery: a duplicate start would contribute this node's
  // set twice (doubling ring traffic), and one arriving after the session's
  // decrypt pass would resurrect an already-spent session key.
  if (set_started_guard_.check_and_mark(spec.session) ||
      set_spent_guard_.contains(spec.session)) {
    ++replay_drops_;
    return;
  }
  const std::optional<std::uint32_t> my_pos =
      position_of(spec.participants, id());
  if (!my_pos) {
    // A start naming this node as ring member without listing it in
    // participants is malformed: drop it rather than joining at a fabricated
    // position (which would double-encrypt someone else's slot).
    ++set_ring_rejects_;
    return;
  }
  // Chunking happens once, at the origin; every later hop re-encrypts and
  // forwards chunks exactly as framed here, so mixed chunk-size settings
  // across the ring interoperate. An empty input still circulates one empty
  // chunk — the stream is what lets every hop learn of the session and the
  // collector count this origin as landed.
  std::vector<std::vector<bn::BigUInt>> chunks =
      split_chunks(std::move(elements), set_chunk_size_);
  const auto n_chunks = static_cast<std::uint32_t>(chunks.size());
  for (std::uint32_t seq = 0; seq < n_chunks; ++seq) {
    ring_encrypt_and_forward(sim, spec, *my_pos,
                             SetChunkHeader{*my_pos, kRingEncrypt, seq,
                                            n_chunks},
                             0, std::move(chunks[seq]));
  }
}

void DlaNode::ring_encrypt_and_forward(net::Transport& sim,
                                       const SetSpec& spec,
                                       std::uint32_t my_pos,
                                       const SetChunkHeader& header,
                                       std::uint32_t hops,
                                       std::vector<bn::BigUInt> elements) {
  session_key(spec.session).encrypt_batch(elements);
  ++hops;
  if (hops == spec.participants.size()) {
    send_ring_frame(sim, kSetFull, spec.collector, spec, header, 0, elements);
    return;
  }
  send_ring_frame(sim, kSetRing,
                  spec.participants[(my_pos + 1) % spec.participants.size()],
                  spec, header, hops, elements);
}

void DlaNode::handle_set_ring(net::Transport& sim, const net::Message& msg) {
  std::optional<RingFrame> frame = read_ring_frame(msg);
  if (!frame) return;
  // Position check BEFORE any crypto: a node absent from participants must
  // not encrypt (and thus alter) a circulating set it has no slot in.
  const std::optional<std::uint32_t> my_pos =
      position_of(frame->spec.participants, id());
  if (!my_pos) {
    ++set_ring_rejects_;
    return;
  }
  // A replayed ring hop after the decrypt pass must not regenerate the
  // (erased) session key — that would leave key/input residue behind and
  // emit ciphertexts nobody can strip.
  if (set_spent_guard_.contains(frame->spec.session)) {
    ++replay_drops_;
    return;
  }
  ring_encrypt_and_forward(sim, frame->spec, *my_pos, frame->header,
                           frame->hops, std::move(frame->elements));
}

void DlaNode::handle_set_full(net::Transport& sim, const net::Message& msg) {
  std::optional<RingFrame> frame = read_ring_frame(msg);
  if (!frame) return;
  const SetSpec& spec = frame->spec;
  // A duplicate kSetFull arriving after the combine would recreate the
  // collect entry (session residue) and, worse, kick off a second decrypt
  // ring against already-spent keys.
  if (set_combined_guard_.contains(spec.session)) {
    ++replay_drops_;
    return;
  }
  std::map<std::uint32_t, ChunkStream>& streams = set_collect_[spec.session];
  ChunkStream& stream = streams[frame->header.origin];
  std::vector<bn::BigUInt>* slot = accept_chunk(stream, frame->header);
  if (slot == nullptr) return;
  *slot = std::move(frame->elements);
  if (!stream.complete() || streams.size() < spec.participants.size() ||
      !std::all_of(streams.begin(), streams.end(),
                   [](const auto& s) { return s.second.complete(); })) {
    return;
  }

  // Every origin's fully-encrypted set is here: combine them, in ascending
  // origin order, under the chosen operation.
  std::vector<bn::BigUInt> combined;
  bool first = true;
  for (auto& [origin, origin_stream] : streams) {
    (void)origin;
    std::vector<bn::BigUInt> set = origin_stream.take();
    sort_unique(set);
    if (first) {
      combined = std::move(set);
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
  std::vector<std::vector<bn::BigUInt>> chunks =
      split_chunks(std::move(combined), set_chunk_size_);
  const auto n_chunks = static_cast<std::uint32_t>(chunks.size());
  for (std::uint32_t seq = 0; seq < n_chunks; ++seq) {
    send_ring_frame(sim, kSetDecrypt, spec.participants[0], spec,
                    SetChunkHeader{0, kRingDecrypt, seq, n_chunks}, 0,
                    chunks[seq]);
  }
}

void DlaNode::handle_set_decrypt(net::Transport& sim,
                                 const net::Message& msg) {
  std::optional<RingFrame> frame = read_ring_frame(msg);
  if (!frame) return;
  const SetSpec& spec = frame->spec;
  // Look the key up instead of lazily creating it: on a duplicate decrypt
  // pass the key was already spent, and session_key() would mint a fresh
  // random key that corrupts the ciphertexts (and lingers forever).
  auto kit = session_keys_.find(spec.session);
  if (kit == session_keys_.end()) {
    ++replay_drops_;
    return;
  }
  // A duplicated chunk must not be decrypted twice — stripping the same
  // layer twice corrupts the ciphertext for every downstream hop. A hop
  // files an empty chunk to mark its seq; the terminal hop files the
  // plaintext, held until the stream completes.
  ChunkStream& stream = decrypt_streams_[spec.session];
  std::vector<bn::BigUInt>* slot = accept_chunk(stream, frame->header);
  if (slot == nullptr) return;
  kit->second.decrypt_batch(frame->elements);
  const std::uint32_t hops = frame->hops + 1;
  const bool terminal = hops == spec.participants.size();
  if (terminal) {
    *slot = std::move(frame->elements);
  } else {
    send_ring_frame(sim, kSetDecrypt, spec.participants[hops], spec,
                    frame->header, hops, frame->elements);
  }
  if (!stream.complete()) return;

  // Whole stream decrypted at this hop: the session key is spent.
  session_keys_.erase(kit);
  set_inputs_.erase(spec.session);
  set_spent_guard_.insert(spec.session);
  if (terminal) {
    // One result in seq order, so observers see bit-identical payloads
    // regardless of chunk size.
    const std::vector<bn::BigUInt> result = stream.take();
    for (net::NodeId obs : spec.observers) {
      net::Writer w;
      w.u64(spec.session);
      encode_elements(w, result);
      send_payload(sim, id(), obs, kSetResult, std::move(w));
    }
  }
  decrypt_streams_.erase(spec.session);
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
  if (acl_sessions_.erase(session) != 0) {
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
    const std::uint64_t qid = pc->second;
    pending_combines_.erase(pc);
    std::vector<logm::Glsn> glsns;
    glsns.reserve(elements.size());
    for (const auto& e : elements) {
      const std::optional<logm::Glsn> glsn = decode_glsn_element(e);
      if (!glsn) {
        // Not an element any node encoded: certifying it would report a
        // glsn nobody wrote.
        ++set_ring_rejects_;
        auto qit = queries_.find(qid);
        if (qit != queries_.end()) {
          fail_query(sim, qit->second, "combine result is not a glsn set");
        }
        return;
      }
      glsns.push_back(*glsn);
    }
    sort_unique(glsns);
    if (QueryState* qs = query_at_task(qid, session)) {
      combine_done_here(sim, *qs, std::move(glsns));
    }
    return;
  }
  if (on_set_result) on_set_result(session, std::move(elements));
}

void DlaNode::start_acl_consistency_check(net::Transport& sim,
                                          SessionId session) {
  acl_sessions_.insert(session);
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
  if (!spec.well_formed())
    throw std::invalid_argument("start_sum: bad threshold or weight count");
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
  // A node the spec does not list has no share to deal: a misrouted start
  // is refused before any state exists.
  const std::optional<std::uint32_t> my_pos =
      position_of(spec.participants, id());
  if (!my_pos) {
    ++detail::wire_reject_counters_mut().codec_rejects;
    return;
  }
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
  auto shares = field.split(secret % cfg_->shamir_prime, spec.threshold_k, xs,
                            rng_);
  for (std::size_t j = 0; j < spec.participants.size(); ++j) {
    net::Writer w;
    w.u64(spec.session);
    w.u32(*my_pos);
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
  // A share counts only from the participant at its index. Once the spec
  // is known that is checked here; earlier arrivals wait for
  // maybe_emit_sum_eval.
  SumState& state = sum_state_[session];
  if (!state.spec.participants.empty() &&
      !from_participant(state.spec.participants, from, msg.src)) {
    ++detail::wire_reject_counters_mut().codec_rejects;
    return;
  }
  state.shares_received[{from, msg.src}] = std::move(y);
  maybe_emit_sum_eval(sim, session);
}

void DlaNode::maybe_emit_sum_eval(net::Transport& sim, SessionId session) {
  SumState& state = sum_state_[session];
  // Shares can outrun the kSumStart carrying the spec under asymmetric
  // latencies; both arrival paths funnel through this check. Until the spec
  // lands it lists nobody, and a node it does not list never evaluates.
  const std::optional<std::uint32_t> my_pos =
      position_of(state.spec.participants, id());
  if (!my_pos || state.evaluated) return;
  detail::wire_reject_counters_mut().codec_rejects +=
      std::erase_if(state.shares_received, [&](const auto& share) {
        return !from_participant(state.spec.participants, share.first.first,
                                 share.first.second);
      });
  if (state.shares_received.size() < state.spec.participants.size()) return;
  state.evaluated = true;
  // F(x_me) = sum_i alpha_i * s_i,me  (alpha_i = 1 when unweighted).
  crypto::ShamirField field(cfg_->shamir_prime);
  bn::BigUInt f;
  for (const auto& [key, share] : state.shares_received) {
    bn::BigUInt term = share;
    if (!state.spec.weights.empty()) {
      term = field.mul(state.spec.weights[key.first], term);
    }
    f = field.add(f, term);
  }
  net::Writer w;
  state.spec.encode(w);
  w.big(bn::BigUInt(std::uint64_t{*my_pos} + 1));
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
  // A node the spec does not list has no value to send: a misrouted
  // kCmpParams is refused before its guard is spent.
  const std::optional<std::uint32_t> my_pos =
      position_of(spec.participants, id());
  if (!my_pos) {
    ++detail::wire_reject_counters_mut().codec_rejects;
    return;
  }
  // The value consumes the staged input, so a duplicate kCmpParams would
  // ship w(0) to the TTP and corrupt the comparison.
  if (cmp_sent_guard_.check_and_mark(spec.session)) {
    ++replay_drops_;
    return;
  }
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
  net::Writer w;
  w.u64(spec.session);
  w.u32(*my_pos);
  w.big(w_value);
  send_payload(sim, id(), spec.ttp, kCmpValue, std::move(w));
  cmp_inputs_.erase(spec.session);
}

void DlaNode::handle_cmp_result(net::Transport&, const net::Message& msg) {
  net::Reader r(msg.payload);
  SessionId session = r.u64();
  const CmpOpKind op = enum_byte(r.u8(), CmpOpKind::Rank);
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
  integrity_initiated_.insert(session);
  bn::BigUInt value =
      accum_stepper_->deposit({fragment_canonical_or_missing(glsn)});
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

void DlaNode::plan_expr(const Expr& expr, Task& parent,
                        std::vector<Task>& tasks, std::uint64_t qid,
                        net::SimTime now) {
  std::set<std::size_t> nodes;
  for (const auto& attr : attributes_of(expr)) {
    nodes.insert(owner_for(attr, now));
  }
  if (nodes.size() <= 1) {
    parent.local_exprs[nodes.empty() ? index_ : *nodes.begin()].push_back(
        expr);
    return;
  }
  Task t;
  if (expr.kind == Expr::Kind::Pred) {
    // Cross-node attribute-vs-attribute predicate -> blind-TTP join.
    t.kind = Task::Kind::Join;
    t.join_pred = expr.pred;
    t.owners = {owner_for(expr.pred.lhs, now),
                owner_for(expr.pred.rhs_attr, now)};
  } else {
    // AND / OR spanning nodes: a combine over its children.
    t.combine_and = expr.kind == Expr::Kind::And;
    for (const auto& child : expr.children) {
      plan_expr(child, t, tasks, qid, now);
    }
  }
  t.rid = (qid << 16) | (tasks.size() + 1);
  parent.child_rids.push_back(t.rid);
  tasks.push_back(std::move(t));
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

void DlaNode::reply_audit(
    net::Transport& sim, net::NodeId user, std::uint64_t user_reqid,
    const std::string& error, const std::vector<logm::Glsn>& glsns,
    const std::optional<crypto::ThresholdSignature>& cert) {
  net::Writer w;
  w.u64(user_reqid);
  w.boolean(error.empty());
  w.str(error);
  w.vec(glsns, [](net::Writer& out, logm::Glsn g) { out.u64(g); });
  w.boolean(cert.has_value());
  if (cert.has_value()) {
    w.big(cert->r);
    w.big(cert->s);
  }
  reply_user(sim, user, user_reqid, kAuditResult, std::move(w));
}

void DlaNode::reply_aggregate(net::Transport& sim, net::NodeId user,
                              std::uint64_t user_reqid,
                              const std::string& error, double value,
                              std::uint64_t count) {
  net::Writer w;
  w.u64(user_reqid);
  w.boolean(error.empty());
  w.str(error);
  w.f64(value);
  w.u64(count);
  reply_user(sim, user, user_reqid, kAggregateResult, std::move(w));
}

void DlaNode::close_query(net::Transport& sim, const QueryState& qs) {
  const std::uint64_t qid = qs.qid;
  sim.cancel_timer(qs.timeout_timer);
  timer_to_qid_.erase(qs.timeout_timer);
  queries_.erase(qid);
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

  if (!tickets_->authorizes(ticket, logm::Op::Read, sim.now())) {
    reply_audit(sim, msg.src, user_reqid, "ticket rejected");
    return;
  }
  QueryState qs;
  qs.user_reqid = user_reqid;
  qs.user = msg.src;
  qs.ticket = ticket;
  try {
    start_query(sim, std::move(qs), criterion);
  } catch (const ParseError& e) {
    reply_audit(sim, msg.src, user_reqid,
                std::string("parse error: ") + e.what());
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
  // node are merged into one local subquery, which the owner's engine plans
  // as one conjunction; it also enables the secret-counting shortcut for
  // compound local criteria.
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
  Task final;
  for (const auto& sq : conjuncts) {
    plan_expr(sq, final, qs.tasks, qid, sim.now());
  }
  // An auditor-scope COUNT over a plan of exactly one local subquery (one
  // owner, one expression, no staged input) gets only the match count
  // (secret counting, [7]), so the glsn set never leaves the owner;
  // user-scope tickets still need the set for ACL filtering.
  const bool secret_count = qs.is_aggregate && qs.agg_op == AggOp::Count &&
                            qs.ticket.auditor && final.child_rids.empty() &&
                            final.local_exprs.size() == 1 &&
                            final.local_exprs.begin()->second.size() == 1;
  final.reply = secret_count ? TaskReply::Count : TaskReply::Set;
  final.rid = (qid << 16) | (qs.tasks.size() + 1);
  qs.tasks.push_back(std::move(final));
  qs.timeout_timer = sim.set_timer(id(), kQueryTimeout);
  timer_to_qid_[qs.timeout_timer] = qid;
  queries_[qid] = std::move(qs);
  run_next_task(sim, queries_[qid]);
}

void DlaNode::handle_aggregate_query(net::Transport& sim,
                                     const net::Message& msg) {
  net::Reader r(msg.payload);
  const std::uint64_t user_reqid = r.u64();
  Ticket ticket = Ticket::decode(r);
  std::string criterion = r.str();
  const AggOp op = enum_byte(r.u8(), AggOp::Avg);
  std::string attr = r.str();
  r.expect_end();
  if (query_is_duplicate(sim, msg.src, user_reqid)) return;

  auto reply_error = [&](const std::string& error) {
    reply_aggregate(sim, msg.src, user_reqid, error);
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
  const AggOp op = enum_byte(r.u8(), AggOp::Avg);
  std::string attr = r.str();
  auto glsns = r.vec<logm::Glsn>([](net::Reader& in) { return in.u64(); });
  r.expect_end();

  double acc = 0.0;
  std::uint64_t present = 0;
  bool first = true;
  const logm::StorageEngine& source = engine_for({attr});
  for (logm::Glsn g : glsns) {
    const std::optional<logm::Value> value = source.fetch_value(g, attr);
    if (!value) continue;
    double v = value->as_real();
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
  reply_aggregate(sim, qs.user, qs.user_reqid,
                  ok ? "" : "no matching values for aggregate", value, count);
  close_query(sim, qs);
}

void DlaNode::run_next_task(net::Transport& sim, QueryState& qs) {
  if (qs.next_task >= qs.tasks.size()) return;
  Task& task = qs.tasks[qs.next_task];
  switch (task.kind) {
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
      qs.rid_owner[task.rid] = task.owners[0];  // the result lands at lhs
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
    case Task::Kind::Combine: {
      // Group the inputs by the node holding them: staged results where
      // they landed, local subqueries at their owner.
      struct Inputs {
        std::vector<std::uint64_t> rids;
        std::vector<Expr> exprs;
      };
      std::map<std::size_t, Inputs> by_owner;
      for (std::uint64_t child : task.child_rids) {
        by_owner[qs.rid_owner.at(child)].rids.push_back(child);
      }
      for (const auto& [owner, exprs] : task.local_exprs) {
        by_owner[owner].exprs = exprs;
      }
      // kCombineExec carries the ring's spec when the inputs sit on several
      // nodes, else the reply the single owner gives.
      auto send_combine = [&](std::size_t owner, const Inputs& in,
                              const SetSpec* ring) {
        net::Writer w;
        w.u64(qs.qid);
        w.u64(task.rid);
        w.boolean(task.combine_and);
        w.vec(in.rids,
              [](net::Writer& out, std::uint64_t rid) { out.u64(rid); });
        w.vec(in.exprs,
              [](net::Writer& out, const Expr& e) { out.str(to_text(e)); });
        w.boolean(ring != nullptr);
        if (ring != nullptr) {
          ring->encode(w);
        } else {
          w.u8(static_cast<std::uint8_t>(task.reply));
        }
        send_payload(sim, id(), cfg_->dla_nodes[owner], kCombineExec,
                     std::move(w));
      };
      if (by_owner.size() == 1) {
        // All inputs on one node: they merge where they already sit in
        // plaintext, in place when that node is this gateway.
        const auto& [owner, in] = *by_owner.begin();
        qs.rid_owner[task.rid] = owner;
        if (owner != index_) {
          send_combine(owner, in, nullptr);
          return;
        }
        combine_done_here(sim, qs,
                          merge_inputs(task.combine_and, in.rids, in.exprs));
        return;
      }
      // Inputs on several nodes: each owner merges its own and joins a
      // secure set ring (intersect/union) that only this gateway observes.
      // Intermediate sets stay inside the cluster, and only the final,
      // ACL-filtered glsn set leaves it.
      SetSpec spec;
      spec.session = task.rid;
      spec.op = task.combine_and ? SetOp::Intersect : SetOp::Union;
      for (const auto& [owner, in] : by_owner) {
        spec.participants.push_back(cfg_->dla_nodes[owner]);
      }
      spec.collector = spec.participants[0];
      spec.observers = {id()};
      qs.rid_owner[task.rid] = index_;
      pending_combines_[task.rid] = qs.qid;
      for (const auto& [owner, in] : by_owner) {
        send_combine(owner, in, &spec);
      }
      return;
    }
  }
}

void DlaNode::handle_join_exec(net::Transport& sim, const net::Message& msg) {
  net::Reader r(msg.payload);
  std::uint64_t qid = r.u64();
  std::uint64_t rid = r.u64();
  std::uint8_t side = r.u8();
  std::string lhs_attr = r.str();
  const CmpOp op = enum_byte(r.u8(), CmpOp::Ne);
  std::string rhs_attr = r.str();
  bool hash_mode = r.u8() != 0;
  bn::BigUInt a = r.big();
  bn::BigUInt b = r.big();
  net::NodeId result_owner = r.u32();
  r.expect_end();
  // One batch per side per rid: a replayed kJoinExec would feed the TTP a
  // second batch for a comparison it may already have served. Marked only
  // once the frame decoded, so a truncated copy cannot spend the rid.
  if (task_rid_guard_.check_and_mark(rid)) {
    ++replay_drops_;
    return;
  }

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
  net::NodeId gateway = r.u32();
  auto glsns =
      r.vec<logm::Glsn>([](net::Reader& in) { return in.u64(); });
  r.expect_end();
  if (batch_result_guard_.check_and_mark(rid)) {
    ++replay_drops_;
    return;
  }
  sort_unique(glsns);
  answer_task(sim, gateway, qid, rid, TaskReply::Stage, std::move(glsns));
}

void DlaNode::handle_combine_exec(net::Transport& sim,
                                  const net::Message& msg) {
  net::Reader r(msg.payload);
  std::uint64_t qid = r.u64();
  std::uint64_t rid = r.u64();
  bool and_op = r.boolean();
  auto input_rids =
      r.vec<std::uint64_t>([](net::Reader& in) { return in.u64(); });
  auto expr_texts =
      r.vec<std::string>([](net::Reader& in) { return in.str(); });
  std::optional<SetSpec> ring;
  TaskReply reply = TaskReply::Stage;
  if (r.boolean()) {
    ring = SetSpec::decode(r);
  } else {
    reply = enum_byte(r.u8(), TaskReply::Set);
  }
  r.expect_end();
  // Parsed before the rid is marked or any input consumed: a frame whose
  // expression does not parse is a parse reject that changes nothing.
  std::vector<Expr> exprs;
  for (const auto& text : expr_texts) {
    exprs.push_back(parse(text, cfg_->schema));
  }
  // A replayed kCombineExec finds its inputs already consumed and would
  // overwrite the staged result with an empty merge.
  if (task_rid_guard_.check_and_mark(rid)) {
    ++replay_drops_;
    return;
  }
  std::vector<logm::Glsn> merged = merge_inputs(and_op, input_rids, exprs);
  if (!ring) {
    answer_task(sim, msg.src, qid, rid, reply, std::move(merged));
    return;
  }
  std::vector<bn::BigUInt> elements;
  elements.reserve(merged.size());
  for (logm::Glsn g : merged) {
    elements.push_back(encode_glsn_element(g));
  }
  sort_unique(elements);
  join_ring(sim, *ring, std::move(elements));
}

std::vector<logm::Glsn> DlaNode::merge_inputs(
    bool and_op, const std::vector<std::uint64_t>& rids,
    const std::vector<Expr>& exprs) {
  // Each expression is evaluated on its own: the scan drops a record that
  // lacks one side's attribute from `a OR b`, which the union keeps.
  std::vector<logm::Glsn> merged;
  bool first = true;
  auto fold = [&](std::vector<logm::Glsn> set) {
    if (first) {
      merged = std::move(set);
      first = false;
    } else {
      merged = and_op ? logm::intersect_sorted(merged, set)
                      : logm::union_sorted(merged, set);
    }
  };
  for (std::uint64_t rid : rids) {
    std::vector<logm::Glsn> set;
    if (auto it = result_sets_.find(rid); it != result_sets_.end()) {
      set = std::move(it->second);
      result_sets_.erase(it);
    }
    fold(std::move(set));
  }
  for (const Expr& expr : exprs) fold(eval_local(expr));
  return merged;
}

void DlaNode::answer_task(net::Transport& sim, net::NodeId gateway,
                          std::uint64_t qid, std::uint64_t rid,
                          TaskReply reply, std::vector<logm::Glsn> glsns) {
  net::Writer w;
  w.u64(qid);
  w.u64(rid);
  if (reply == TaskReply::Set) {
    w.vec(glsns, [](net::Writer& out, logm::Glsn g) { out.u64(g); });
    send_payload(sim, id(), gateway, kSubqueryData, std::move(w));
    return;
  }
  w.u32(static_cast<std::uint32_t>(glsns.size()));
  // Secret counting keeps the glsn set out of every store, including this
  // node's result buffer.
  if (reply == TaskReply::Stage) result_sets_[rid] = std::move(glsns);
  send_payload(sim, id(), gateway, kSubqueryDone, std::move(w));
}

DlaNode::QueryState* DlaNode::query_at_task(std::uint64_t qid,
                                            std::uint64_t rid) {
  auto it = queries_.find(qid);
  if (it == queries_.end()) return nullptr;
  QueryState& qs = it->second;
  if (qs.next_task >= qs.tasks.size() || qs.tasks[qs.next_task].rid != rid) {
    return nullptr;
  }
  return &qs;
}

void DlaNode::handle_subquery_done(net::Transport& sim,
                                   const net::Message& msg) {
  net::Reader r(msg.payload);
  std::uint64_t qid = r.u64();
  std::uint64_t rid = r.u64();
  std::uint32_t size = r.u32();
  r.expect_end();
  QueryState* qs = query_at_task(qid, rid);
  if (qs == nullptr) return;
  if (qs->tasks[qs->next_task].reply == TaskReply::Count) {
    // Secret counting: the size IS the answer; no glsn set exists anywhere.
    reply_aggregate(sim, qs->user, qs->user_reqid, "", size, size);
    close_query(sim, *qs);
    return;
  }
  task_completed(sim, qid);
}

void DlaNode::combine_done_here(net::Transport& sim, QueryState& qs,
                                std::vector<logm::Glsn> glsns) {
  const Task& task = qs.tasks[qs.next_task];
  if (task.reply != TaskReply::Stage) {
    // The final combine; a secret count merged here keeps no set either,
    // since finish_query answers an auditor's COUNT with the size alone.
    finish_query(sim, qs, std::move(glsns));
    return;
  }
  result_sets_[task.rid] = std::move(glsns);
  task_completed(sim, qs.qid);
}

void DlaNode::task_completed(net::Transport& sim, std::uint64_t qid) {
  auto it = queries_.find(qid);
  if (it == queries_.end()) return;
  QueryState& qs = it->second;
  ++qs.next_task;
  if (qs.next_task < qs.tasks.size()) {
    run_next_task(sim, qs);
  }
  // The final task completes through finish_query instead.
}

void DlaNode::handle_subquery_data(net::Transport& sim,
                                   const net::Message& msg) {
  net::Reader r(msg.payload);
  std::uint64_t qid = r.u64();
  std::uint64_t rid = r.u64();
  auto glsns = r.vec<logm::Glsn>([](net::Reader& in) { return in.u64(); });
  r.expect_end();
  if (QueryState* qs = query_at_task(qid, rid)) {
    finish_query(sim, *qs, std::move(glsns));
  }
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
      reply_aggregate(sim, qs.user, qs.user_reqid, "",
                      static_cast<double>(glsns.size()), glsns.size());
      close_query(sim, qs);
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
  if (!signer_set_.empty() && signing_share_.has_value()) {
    SignState st;
    st.qid = qs.qid;
    st.glsns = glsns;
    st.message = report_message(qs.user_reqid, glsns);
    SessionId sid = qs.qid;
    sign_state_[sid] = std::move(st);
    for (std::uint32_t i : signer_set_) {
      net::Writer w;
      w.u64(sid);
      w.str(sign_state_[sid].message);
      send_payload(sim, id(), cfg_->dla_nodes[i - 1], kSignRequest,
                   std::move(w));
    }
    return;  // reply deferred until the co-signature completes
  }
  reply_audit(sim, qs.user, qs.user_reqid, "", glsns);
  close_query(sim, qs);
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
  maybe_finish_dkg(session);
}

void DlaNode::handle_dkg_commit(net::Transport&, const net::Message& msg) {
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
  maybe_finish_dkg(session);
}

void DlaNode::handle_dkg_share(net::Transport&, const net::Message& msg) {
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
  maybe_finish_dkg(session);
}

void DlaNode::maybe_finish_dkg(SessionId session) {
  DkgState& st = dkg_state_[session];
  const std::size_t n = cfg_->cluster_size();
  if (st.k == 0 || st.commitments.size() < n || st.shares.size() < n) {
    return;
  }

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
  if (st.nonces.size() < signer_set_.size()) return;
  st.challenged = true;
  std::vector<bn::BigUInt> rs;
  rs.reserve(st.nonces.size());
  for (const auto& [idx, ri] : st.nonces) rs.push_back(ri);
  st.r = crypto::combine_commitments(*cfg_->threshold_params, rs);
  st.c = crypto::challenge(*cfg_->threshold_params, st.r, st.message);
  for (std::size_t i = 0; i < signer_set_.size(); ++i) {
    net::Writer w;
    w.u64(sid);
    w.big(st.c);
    w.big(signer_lambdas_[i]);
    send_payload(sim, id(), cfg_->dla_nodes[signer_set_[i] - 1],
                 kSignChallenge, std::move(w));
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
  if (st.s_shares.size() < signer_set_.size()) return;
  crypto::ThresholdSignature sig =
      crypto::combine_signature(*cfg_->threshold_params, st.r, st.s_shares);
  auto qit = queries_.find(st.qid);
  if (qit != queries_.end()) {
    // Self-check before publishing: a Byzantine signer's bad share must
    // not reach the user as a "certified" report.
    bool valid =
        crypto::verify_threshold(*cfg_->threshold_params, st.message, sig);
    reply_audit(sim, qit->second.user, qit->second.user_reqid, "", st.glsns,
                valid ? std::optional<crypto::ThresholdSignature>(sig)
                      : std::nullopt);
    close_query(sim, qit->second);
  }
  sign_state_.erase(it);
}

void DlaNode::fail_query(net::Transport& sim, QueryState& qs,
                         const std::string& error) {
  if (qs.is_aggregate) {
    reply_aggregate(sim, qs.user, qs.user_reqid, error);
  } else {
    reply_audit(sim, qs.user, qs.user_reqid, error);
  }
  close_query(sim, qs);
}

}  // namespace dla::audit
