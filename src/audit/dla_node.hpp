// DLA node actor P_i — the paper's trusted-third-party cluster member.
//
// One DlaNode plays every data-plane role of Sections 2-4:
//   * fragment storage for its attribute set A_i, with the per-ticket
//     access-control table of Table 6;
//   * replica/leader of the majority-agreement glsn sequencer;
//   * party in the secure set intersection/union rings (Figure 4), secure
//     sum (Section 3.5), and blind-TTP comparisons (Sections 3.2-3.3);
//   * circulation hop of the one-way-accumulator integrity check (4.1);
//   * gateway/coordinator for confidential audit queries (Figure 3):
//     parse -> normalize -> classify -> plan -> execute subqueries ->
//     conjoin by secure set intersection -> ACL-filter -> reply.
//
// Relaxed-model disclosures (Definition 1), documented here once: set sizes
// and per-link message counts are visible; intermediate subquery glsn sets
// are revealed to the DLA node that owns the subquery (never to a node
// outside the cluster); the blind TTP sees transformed values only; the
// query gateway sees the final glsn set it returns to the querier.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "audit/config.hpp"
#include "audit/query.hpp"
#include "audit/replay_guard.hpp"
#include "audit/ticket.hpp"
#include "audit/wire.hpp"
#include "crypto/accumulator.hpp"
#include "crypto/dkg.hpp"
#include "crypto/rng.hpp"
#include "crypto/shamir.hpp"
#include "logm/storage_engine.hpp"
#include "logm/store.hpp"

namespace dla::audit {

class DlaNode : public net::Node {
 public:
  // `seed` drives all of this node's randomness (session keys, shares).
  DlaNode(std::string name, std::uint64_t seed);

  // Must be called after Simulator::add_node and before any traffic.
  // `index` is this node's position i in cfg->dla_nodes.
  void configure(ConfigPtr cfg, std::size_t index);

  // Installs this node's secret share of the cluster's threshold signing
  // key (required on every node when cfg->threshold_params is set).
  void set_signing_share(crypto::SignerShare share) {
    signing_share_ = std::move(share);
  }
  const std::optional<crypto::SignerShare>& signing_share() const {
    return signing_share_;
  }

  const std::string& name() const { return name_; }
  std::size_t index() const { return index_; }

  // --- local state (driver/test access) ---------------------------------
  // The memtable view of the primary/replica storage engines. On the default
  // MemoryEngine backend this is the entire store, so existing drivers and
  // tests keep their semantics; on a SegmentEngine it is only the unsealed
  // tail — engine-aware callers should go through storage().
  logm::FragmentStore& store() { return engine_->memtable(); }
  const logm::FragmentStore& store() const { return engine_->memtable(); }
  // Replica copies of predecessors' fragments (cfg->replication >= 2).
  logm::FragmentStore& replica_store() { return replica_engine_->memtable(); }
  const logm::FragmentStore& replica_store() const {
    return replica_engine_->memtable();
  }
  // The full storage engines (memtable + any sealed segments).
  logm::StorageEngine& storage() { return *engine_; }
  const logm::StorageEngine& storage() const { return *engine_; }
  logm::StorageEngine& replica_storage() { return *replica_engine_; }
  const logm::StorageEngine& replica_storage() const {
    return *replica_engine_;
  }
  // Swaps a storage backend in (e.g. a logm::SegmentEngine rooted in a
  // per-node directory). Must run before any traffic; existing contents are
  // NOT migrated. Null arguments keep the current engine.
  void set_storage(std::unique_ptr<logm::StorageEngine> primary,
                   std::unique_ptr<logm::StorageEngine> replica) {
    if (primary) engine_ = std::move(primary);
    if (replica) replica_engine_ = std::move(replica);
  }
  logm::AccessControlTable& acl() { return acl_; }
  const logm::AccessControlTable& acl() const { return acl_; }
  const std::map<logm::Glsn, bn::BigUInt>& deposits() const {
    return deposits_;
  }

  // Ring-pass chunking: element count per kSetRing/kSetFull/kSetDecrypt
  // frame. Each hop re-encrypts chunk k while chunk k+1 is still in flight
  // upstream, so ring latency under a bandwidth-limited link model scales
  // with max(compute, transmit) instead of their sum. 0 = legacy monolithic
  // frames (one chunk per set), kept for differential testing.
  void set_chunk_size(std::size_t elements) { set_chunk_size_ = elements; }
  std::size_t chunk_size() const { return set_chunk_size_; }

  // Ring-pass messages dropped because this node was not listed in the
  // spec's participants (a malformed or misrouted kSetStart/kSetRing).
  // Joining the ring at a fabricated position would corrupt the protocol —
  // such messages are rejected, and this counter is the audit trail. It
  // also counts malformed ring frames and, at a gateway, combine results
  // holding an element that is not a glsn element (the query fails).
  std::uint64_t set_ring_rejects() const { return set_ring_rejects_; }
  // Messages dropped because their session was already served (at-least-once
  // duplicates recognised by the replay guards).
  std::uint64_t replay_drops() const { return replay_drops_; }

  // Transient protocol-session entries currently held by this node. A
  // quiesced cluster (drained simulator, every protocol terminal) must
  // report zero — the invariant explorer asserts exactly that. Durable
  // state (fragment stores, ACL, deposits, dedup journals) is excluded.
  std::size_t session_residue() const {
    std::size_t total = 0;
    for (const auto& [name, size] : session_residue_breakdown()) total += size;
    return total;
  }

  // Same accounting, itemised by map, so a quiescence violation names the
  // protocol that leaked instead of just a count.
  std::vector<std::pair<const char*, std::size_t>> session_residue_breakdown()
      const {
    return {{"glsn_rounds", glsn_rounds_.size()},
            {"forwards_in_flight", forwards_in_flight_.size()},
            {"pending_glsn", pending_glsn_.size()},
            {"timer_to_gid", timer_to_gid_.size()},
            {"timer_to_qid", timer_to_qid_.size()},
            {"session_keys", session_keys_.size()},
            {"set_inputs", set_inputs_.size()},
            {"set_collect", set_collect_.size()},
            {"decrypt_streams", decrypt_streams_.size()},
            {"sum_state", sum_state_.size()},
            {"sum_inputs", sum_inputs_.size()},
            {"cmp_inputs", cmp_inputs_.size()},
            {"vector_inputs", vector_inputs_.size()},
            {"scalar_state", scalar_state_.size()},
            {"integrity_initiated", integrity_initiated_.size()},
            {"acl_sessions", acl_sessions_.size()},
            {"queries", queries_.size()},
            {"user_queries_in_flight", user_queries_in_flight_.size()},
            {"result_sets", result_sets_.size()},
            {"pending_combines", pending_combines_.size()},
            {"dkg_state", dkg_state_.size()},
            {"sign_nonces", sign_nonces_.size()},
            {"sign_state", sign_state_.size()}};
  }

  // Test-only fault hook: rewind the sequencer so the next assignment
  // collides with an already-issued glsn. Used by the invariant explorer to
  // prove the glsn-uniqueness check actually fires.
  void debug_rewind_glsn(logm::Glsn to) {
    glsn_counter_ = to;
    last_promised_ = to;
  }

  // --- protocol driver API ----------------------------------------------
  // Stage this node's private input for a protocol session, then have the
  // initiator call the matching start_* before the simulator runs.
  void stage_set_input(SessionId session, std::vector<bn::BigUInt> elements);
  void stage_sum_input(SessionId session, bn::BigUInt value);
  void stage_cmp_input(SessionId session, bn::BigUInt value);

  // Ring-based secure set intersection / union over staged inputs.
  void start_set_protocol(net::Transport& sim, const SetSpec& spec);
  // Shamir secure (weighted) sum over staged inputs.
  void start_sum(net::Transport& sim, const SumSpec& spec);
  // Blind-TTP equality / max / min / rank over staged inputs. This node
  // generates the shared transform and distributes it to participants
  // (but not to the TTP).
  void start_cmp(net::Transport& sim, CmpSpec spec);
  // Du-Atallah secure scalar product between two parties with the blind
  // TTP as commodity server: both stage equal-length vectors via
  // stage_vector_input; Alice (and the observers) learn only A.B mod p.
  void stage_vector_input(SessionId session, std::vector<bn::BigUInt> v);
  void start_scalar_product(net::Transport& sim, SessionId session,
                            net::NodeId alice, net::NodeId bob,
                            std::uint32_t length,
                            std::vector<net::NodeId> observers);
  std::function<void(SessionId, bn::BigUInt)> on_scalar_result;
  // One-way accumulator circulation for one glsn (Section 4.1).
  void start_integrity_check(net::Transport& sim, SessionId session,
                             logm::Glsn glsn);
  // ACL consistency audit: secure set intersection over canonical ACL
  // entries of all cluster nodes; reports consistent iff the intersection
  // matches this node's own table.
  void start_acl_consistency_check(net::Transport& sim, SessionId session);

  // Periodic self-audit (Section 4.1: "DLA node can periodically check the
  // integrity of log records it stores"): every `interval` microseconds
  // this node circulates an integrity check for the next stored glsn in
  // rotation; outcomes arrive through on_integrity_result.
  void enable_periodic_audit(net::Transport& sim, net::SimTime interval);
  void disable_periodic_audit() { periodic_interval_ = 0; }

  // Distributed key generation: every cluster node deals a random secret
  // with Feldman VSS; the verified share sums become (k, n) shares of a
  // joint key no party ever sees. Results arrive via on_dkg_result on
  // every participant.
  void start_dkg(net::Transport& sim, SessionId session, std::uint32_t k);
  struct DkgResult {
    bool ok = false;
    crypto::ThresholdParams params;       // valid when ok
    crypto::SignerShare share;            // this node's share, when ok
    std::vector<std::uint32_t> bad_dealers;  // 1-based indices, when !ok
  };
  std::function<void(SessionId, const DkgResult&)> on_dkg_result;
  // Test hook: deal one corrupted share (to the highest-index participant)
  // to exercise the Feldman verification path.
  void set_dkg_corrupt(bool corrupt) { dkg_corrupt_ = corrupt; }

  // Failure detection: periodic heartbeats to every peer; a peer missing
  // 3 consecutive beats is suspected, and gateways route its subqueries to
  // the successor replica (requires cfg->replication >= 2 for coverage).
  void start_heartbeats(net::Transport& sim);
  bool suspects(std::size_t peer_index, net::SimTime now) const;

  // --- protocol outcome callbacks (observer side) ------------------------
  std::function<void(SessionId, std::vector<bn::BigUInt>)> on_set_result;
  std::function<void(SessionId, bn::BigUInt)> on_sum_result;
  // Equality: outcome 0/1. Max/Min: winning participant index.
  std::function<void(SessionId, CmpOpKind, std::uint32_t)> on_cmp_result;
  // Rank of this node's own value (0 = smallest), delivered privately.
  std::function<void(SessionId, std::uint32_t)> on_rank;
  std::function<void(SessionId, logm::Glsn, bool ok)> on_integrity_result;
  std::function<void(SessionId, bool consistent)> on_acl_check;

  // --- actor entry points -------------------------------------------------
  void on_message(net::Transport& sim, const net::Message& msg) override;
  void on_timer(net::Transport& sim, std::uint64_t timer_id) override;

 private:
  // ---- logging path ----
  void handle_glsn_request(net::Transport& sim, const net::Message& msg);
  void handle_glsn_forward(net::Transport& sim, const net::Message& msg);
  void handle_glsn_propose(net::Transport& sim, const net::Message& msg);
  void handle_glsn_vote(net::Transport& sim, const net::Message& msg);
  // Gateway: sends request `gid` to its current leader and arms failover.
  void forward_glsn(net::Transport& sim, std::uint64_t gid);
  // Leader: proposes max(glsn_counter_, floor) + 1 to every replica.
  void propose_glsn(net::Transport& sim, logm::Glsn floor,
                    net::NodeId reply_to, std::uint64_t reqid);
  void handle_glsn_reply(net::Transport& sim, const net::Message& msg);
  void handle_log_fragment(net::Transport& sim, const net::Message& msg);
  void handle_fragment_request(net::Transport& sim, const net::Message& msg);
  void handle_fragment_delete(net::Transport& sim, const net::Message& msg);
  void dispatch(net::Transport& sim, const net::Message& msg);

  // ---- set ring ----
  // Figure 4's two passes are chunk streams (SetChunkHeader). The encrypt
  // pass carries one stream per origin, which the collector reassembles;
  // the decrypt pass carries one stream of the combined set, which each hop
  // tracks so it strips its key from every chunk once. Both passes share
  // split_chunks, read_ring_frame and accept_chunk.
  struct ChunkStream {
    std::uint32_t n_chunks = 0;  // declared by the first chunk to arrive
    std::map<std::uint32_t, std::vector<bn::BigUInt>> chunks;  // by seq
    bool complete() const {
      return n_chunks != 0 && chunks.size() == n_chunks;
    }
    // The chunks' elements concatenated in seq order.
    std::vector<bn::BigUInt> take();
  };
  // A kSetRing, kSetFull or kSetDecrypt frame (kSetFull carries no hops).
  struct RingFrame {
    SetSpec spec;
    SetChunkHeader header;
    std::uint32_t hops = 0;
    std::vector<bn::BigUInt> elements;
  };
  void handle_set_start(net::Transport& sim, const net::Message& msg);
  void handle_set_ring(net::Transport& sim, const net::Message& msg);
  void handle_set_full(net::Transport& sim, const net::Message& msg);
  void handle_set_decrypt(net::Transport& sim, const net::Message& msg);
  void handle_set_result(net::Transport& sim, const net::Message& msg);
  // Decodes a received ring frame and checks it against its spec before any
  // state is touched: the ring id matches the message type, origin and hops
  // index inside the participants, the seq lies inside its stream, and
  // every element lies in [1, p-1]. A malformed frame counts one
  // set_ring_rejects and yields nullopt.
  std::optional<RingFrame> read_ring_frame(const net::Message& msg);
  void send_ring_frame(net::Transport& sim, std::uint32_t type,
                       net::NodeId dst, const SetSpec& spec,
                       const SetChunkHeader& header, std::uint32_t hops,
                       const std::vector<bn::BigUInt>& elements);
  // Admits chunk `header` to `stream` and returns the empty slot its
  // elements go in, or null, counted, when the chunk is refused. The rules,
  // in order: a chunk of a complete stream is a replay; a chunk that
  // disagrees on the stream's length is a reject; a seq already held is a
  // replay.
  std::vector<bn::BigUInt>* accept_chunk(ChunkStream& stream,
                                         const SetChunkHeader& header);
  crypto::PhKey& session_key(SessionId session);
  // Joins the ring of `spec` with `elements` as this node's input, once per
  // session and only at a listed position (kSetStart and ring combines).
  void join_ring(net::Transport& sim, const SetSpec& spec,
                 std::vector<bn::BigUInt> elements);
  // Encrypts one chunk under this node's session key and passes it to the
  // next position, or to the collector after the last hop.
  void ring_encrypt_and_forward(net::Transport& sim, const SetSpec& spec,
                                std::uint32_t my_pos,
                                const SetChunkHeader& header,
                                std::uint32_t hops,
                                std::vector<bn::BigUInt> elements);

  // ---- secure sum ----
  void handle_sum_start(net::Transport& sim, const net::Message& msg);
  void handle_sum_share(net::Transport& sim, const net::Message& msg);
  void maybe_emit_sum_eval(net::Transport& sim, SessionId session);
  void handle_sum_eval(net::Transport& sim, const net::Message& msg);
  void handle_sum_result(net::Transport& sim, const net::Message& msg);

  // ---- blind-TTP comparisons ----
  void handle_cmp_params(net::Transport& sim, const net::Message& msg);
  void handle_cmp_result(net::Transport& sim, const net::Message& msg);
  void handle_rank_result(net::Transport& sim, const net::Message& msg);

  // ---- secure scalar product ----
  void handle_scalar_randomness(net::Transport& sim, const net::Message& msg);
  void handle_scalar_masked_a(net::Transport& sim, const net::Message& msg);
  void handle_scalar_reply(net::Transport& sim, const net::Message& msg);
  void handle_scalar_result(net::Transport& sim, const net::Message& msg);

  // ---- integrity ----
  void handle_integrity_pass(net::Transport& sim, const net::Message& msg);
  std::string fragment_canonical_or_missing(logm::Glsn glsn) const;

  // ---- query pipeline (gateway + owner roles) ----
  void handle_audit_query(net::Transport& sim, const net::Message& msg);
  void handle_aggregate_query(net::Transport& sim, const net::Message& msg);
  void handle_aggregate_exec(net::Transport& sim, const net::Message& msg);
  void handle_aggregate_value(net::Transport& sim, const net::Message& msg);
  void handle_dkg_start(net::Transport& sim, const net::Message& msg);
  void handle_dkg_commit(net::Transport& sim, const net::Message& msg);
  void handle_dkg_share(net::Transport& sim, const net::Message& msg);
  void maybe_finish_dkg(SessionId session);
  void handle_sign_request(net::Transport& sim, const net::Message& msg);
  void handle_sign_nonce(net::Transport& sim, const net::Message& msg);
  void handle_sign_challenge(net::Transport& sim, const net::Message& msg);
  void handle_sign_share(net::Transport& sim, const net::Message& msg);
  void handle_join_exec(net::Transport& sim, const net::Message& msg);
  void handle_combine_exec(net::Transport& sim, const net::Message& msg);
  void handle_subquery_done(net::Transport& sim, const net::Message& msg);
  void handle_cmp_batch_result(net::Transport& sim, const net::Message& msg);
  void handle_subquery_data(net::Transport& sim, const net::Message& msg);

  // Gateway-side task plan. Every local subquery is an input of the combine
  // that consumes it: its owner evaluates it when that combine reaches it.
  struct Task {
    enum class Kind { Join, Combine } kind = Kind::Combine;
    std::uint64_t rid = 0;
    // Join: cross-node attr-vs-attr predicate; owners = {lhs, rhs} indices.
    Predicate join_pred;
    std::vector<std::size_t> owners;  // cluster indices
    // Combine: the staged results of earlier tasks plus local subqueries
    // keyed by their owner, combined with `combine_and`. The final combine
    // answers Set, or Count for a secret count; every other one stages.
    bool combine_and = true;
    std::vector<std::uint64_t> child_rids;
    std::map<std::size_t, std::vector<Expr>> local_exprs;
    TaskReply reply = TaskReply::Stage;
  };
  struct QueryState {
    std::uint64_t qid = 0;
    std::uint64_t user_reqid = 0;
    net::NodeId user = 0;
    Ticket ticket;
    std::vector<Task> tasks;
    std::size_t next_task = 0;
    std::map<std::uint64_t, std::size_t> rid_owner;  // rid -> cluster index
    // Aggregate-query extension: when set, the final glsn set is not
    // returned; it is aggregated instead (count at the gateway, value
    // aggregates at the attribute's owner node).
    bool is_aggregate = false;
    AggOp agg_op = AggOp::Count;
    std::string agg_attr;
    // Watchdog: fail the query to the user if the pipeline stalls (e.g. a
    // partition swallowed a subquery task).
    std::uint64_t timeout_timer = 0;
    // Set once the final result is being certified/aggregated; duplicate
    // completion messages must not re-enter finish_query.
    bool finishing = false;
  };
  // Plans `expr` as an input of the combine `parent`: a local subquery
  // joins parent.local_exprs, anything else becomes tasks appended to
  // `tasks` whose result rid joins parent.child_rids.
  void plan_expr(const Expr& expr, Task& parent, std::vector<Task>& tasks,
                 std::uint64_t qid, net::SimTime now);
  // Parses + normalizes + plans the criterion into qs.tasks and launches
  // the first task. Throws ParseError on a bad criterion.
  void start_query(net::Transport& sim, QueryState qs,
                   const std::string& criterion);
  void run_next_task(net::Transport& sim, QueryState& qs);
  void finish_query(net::Transport& sim, QueryState& qs,
                    std::vector<logm::Glsn> glsns);
  void fail_query(net::Transport& sim, QueryState& qs,
                  const std::string& error);
  void task_completed(net::Transport& sim, std::uint64_t qid);
  // The gateway holds the result of the current combine: the final one
  // answers the query, any other stages it here for a later combine.
  void combine_done_here(net::Transport& sim, QueryState& qs,
                         std::vector<logm::Glsn> glsns);
  // The query whose current task is `rid`, or null for a stale, duplicate
  // or unknown task answer.
  QueryState* query_at_task(std::uint64_t qid, std::uint64_t rid);
  // Merges (and drops) this node's staged task results and the results of
  // evaluating `exprs` here, each on its own, under AND / OR.
  std::vector<logm::Glsn> merge_inputs(bool and_op,
                                       const std::vector<std::uint64_t>& rids,
                                       const std::vector<Expr>& exprs);
  // Owner side: answers the gateway for task `rid` as `reply` asks.
  void answer_task(net::Transport& sim, net::NodeId gateway, std::uint64_t qid,
                   std::uint64_t rid, TaskReply reply,
                   std::vector<logm::Glsn> glsns);
  std::vector<logm::Glsn> eval_local(const Expr& expr) const;
  // The engine to evaluate `attrs` against: the primary engine when they are
  // this node's own attributes, else the replica engine.
  const logm::StorageEngine& engine_for(
      const std::set<std::string>& attrs) const;
  // The cluster index answering for `attr` right now: the primary owner,
  // or its successor replica when the primary is suspected.
  std::size_t owner_for(const std::string& attr, net::SimTime now) const;

  std::string name_;
  crypto::ChaCha20Rng rng_;
  ConfigPtr cfg_;
  std::size_t index_ = 0;
  std::optional<TicketService> tickets_;

  std::unique_ptr<logm::StorageEngine> engine_ =
      std::make_unique<logm::MemoryEngine>();
  std::unique_ptr<logm::StorageEngine> replica_engine_ =
      std::make_unique<logm::MemoryEngine>();
  logm::AccessControlTable acl_;
  std::map<logm::Glsn, bn::BigUInt> deposits_;
  std::optional<crypto::AccumulatorStepper> accum_stepper_;  // circulation

  // failure detector state.
  bool heartbeats_on_ = false;
  std::uint64_t heartbeat_timer_ = 0;
  std::map<std::size_t, net::SimTime> last_heartbeat_;  // peer index -> time

  // glsn sequencing state. Only a proposing node moves glsn_counter_: it
  // holds the highest value this node ever proposed (next is counter+1).
  logm::Glsn glsn_counter_ = 0x139aef77;
  logm::Glsn last_promised_ = 0;
  struct GlsnRound {
    logm::Glsn proposal = 0;
    std::size_t accepts = 0;
    std::size_t rejects = 0;
    logm::Glsn highest_hint = 0;
    net::NodeId reply_to = 0;   // gateway that forwarded
    std::uint64_t reqid = 0;
    std::set<net::NodeId> voters;  // replicas counted (duplicate votes drop)
  };
  std::map<std::uint64_t, GlsnRound> glsn_rounds_;  // key: proposal id
  std::uint64_t next_proposal_id_ = 1;
  // Gateway-side pending user requests, keyed by a gateway-local id (user
  // reqids are only unique per user and would collide across users).
  struct PendingGlsn {
    net::NodeId user = 0;
    std::uint64_t user_reqid = 0;
    std::size_t leader_attempt = 0;
    std::uint64_t timer = 0;
  };
  std::map<std::uint64_t, PendingGlsn> pending_glsn_;  // by gateway id
  std::map<std::uint64_t, std::uint64_t> timer_to_gid_;
  std::uint64_t next_gid_ = 1;
  std::map<std::uint64_t, std::uint64_t> timer_to_qid_;
  // At-least-once journals: a duplicated kGlsnRequest / kGlsnForward must
  // not burn a fresh sequence number (that would shift every later glsn
  // against a fault-free run); instead the remembered reply is replayed.
  // Gateway: (user, reqid) -> assigned glsn, 0 while still in flight.
  BoundedJournal<std::pair<net::NodeId, std::uint64_t>, logm::Glsn>
      glsn_request_journal_;
  std::set<std::uint64_t> forwards_in_flight_;        // leader: gid -> round open
  BoundedJournal<std::uint64_t, logm::Glsn>
      forward_journal_;  // leader: gid -> glsn
  // Replica: proposal_id -> the vote already cast. A duplicated
  // kGlsnPropose must re-send the original vote; re-evaluating it against
  // last_promised_ (which the first copy raised) would emit a spurious
  // reject and could wedge the round without a majority either way.
  BoundedJournal<std::uint64_t, bool> propose_journal_;
  // Owner: outcome of each served kFragmentDelete by (user, reqid). Deletes
  // are not idempotent — a duplicated request must replay the remembered
  // outcome, never re-run the erase (see handle_fragment_delete).
  BoundedJournal<std::pair<net::NodeId, std::uint64_t>, bool> delete_journal_;
  // Gateway: final kAuditResult/kAggregateResult payload by (user, reqid).
  // Query pipelines are not idempotent — a duplicated kAuditQuery re-run
  // later can observe a different store state, and its (different) reply
  // could overtake the genuine one at the session. Duplicates replay the
  // remembered reply; while the original is still running they are dropped
  // (the in-flight set below).
  struct UserReply {
    MsgType type = kAuditResult;
    net::Bytes payload;
  };
  BoundedJournal<std::pair<net::NodeId, std::uint64_t>, UserReply>
      user_reply_journal_;
  std::set<std::pair<net::NodeId, std::uint64_t>> user_queries_in_flight_;
  // Owner: glsns whose fragment was deleted; a late or replayed kLogFragment
  // for one must not resurrect the fragment, its ACL entry or its deposit.
  // Exact, not a bounded journal: an evicted tombstone would let a replay
  // any number of deletes later restore the record.
  std::set<logm::Glsn> deleted_glsns_;

  // periodic self-audit state.
  net::SimTime periodic_interval_ = 0;
  std::uint64_t periodic_timer_ = 0;
  logm::Glsn periodic_cursor_ = 0;

  // protocol state.
  std::map<SessionId, crypto::PhKey> session_keys_;
  std::map<SessionId, std::vector<bn::BigUInt>> set_inputs_;
  // Collector: each session's encrypt-pass streams by origin. The combine
  // fires once every participant's stream is complete.
  std::map<SessionId, std::map<std::uint32_t, ChunkStream>> set_collect_;
  // Each hop's decrypt-pass stream; the session key retires when it is
  // complete.
  std::map<SessionId, ChunkStream> decrypt_streams_;
  std::size_t set_chunk_size_ = 64;
  std::uint64_t set_ring_rejects_ = 0;
  std::uint64_t replay_drops_ = 0;
  // Duplicate-delivery guards (see replay_guard.hpp): ring sessions this
  // node already joined / finished decrypting, collector sessions already
  // combined, result sessions already delivered, task rids already executed,
  // sign sessions already responded to, DKG sessions already finished.
  ReplayGuard set_started_guard_;
  ReplayGuard set_spent_guard_;
  ReplayGuard set_combined_guard_;
  ReplayGuard set_result_guard_;
  ReplayGuard task_rid_guard_;
  ReplayGuard batch_result_guard_;
  ReplayGuard sign_served_guard_;
  ReplayGuard dkg_done_guard_;
  ReplayGuard sum_done_guard_;
  ReplayGuard scalar_done_guard_;
  ReplayGuard scalar_result_guard_;
  ReplayGuard cmp_sent_guard_;
  ReplayGuard cmp_result_guard_;

  std::map<SessionId, bn::BigUInt> sum_inputs_;
  struct SumState {
    SumSpec spec;
    // (from index, sender) -> y; a key counts once its sender is
    // spec.participants[from].
    std::map<std::pair<std::uint32_t, net::NodeId>, bn::BigUInt>
        shares_received;
    bool evaluated = false;
    std::vector<crypto::Share> evals;  // collector side
    bool reconstructed = false;
  };
  std::map<SessionId, SumState> sum_state_;

  std::map<SessionId, bn::BigUInt> cmp_inputs_;

  // scalar product state.
  std::map<SessionId, std::vector<bn::BigUInt>> vector_inputs_;
  struct ScalarState {
    std::vector<bn::BigUInt> r_vec;  // Ra or Rb from the commodity server
    bn::BigUInt r_scalar;            // ra or rb
    net::NodeId peer = 0;
    std::vector<net::NodeId> observers;
    bool is_alice = false;
    bool have_randomness = false;
    std::vector<bn::BigUInt> pending_masked_a;  // Bob: A+Ra that beat the TTP
  };
  std::map<SessionId, ScalarState> scalar_state_;
  void scalar_send_masked_a(net::Transport& sim, SessionId session);
  void scalar_bob_reply(net::Transport& sim, SessionId session);

  std::set<SessionId> integrity_initiated_;
  std::set<SessionId> acl_sessions_;

  // query state.
  std::map<std::uint64_t, QueryState> queries_;     // gateway side
  std::map<std::uint64_t, std::vector<logm::Glsn>> result_sets_;  // owner side
  // Gateway side: ring combines in flight, session (= rid) -> qid.
  std::map<SessionId, std::uint64_t> pending_combines_;
  std::uint64_t next_qid_ = 1;
  std::uint64_t next_session_ = 1;

  // distributed key generation.
  struct DkgState {
    std::uint32_t k = 0;
    bool dealt = false;
    std::map<std::uint32_t, std::vector<bn::BigUInt>> commitments;
    std::map<std::uint32_t, bn::BigUInt> shares;  // dealer -> share for me
  };
  std::map<SessionId, DkgState> dkg_state_;
  bool dkg_corrupt_ = false;

  // threshold report certification.
  std::optional<crypto::SignerShare> signing_share_;
  std::map<SessionId, bn::BigUInt> sign_nonces_;  // signer side: sid -> k
  // The signer set {1..k} (1-based indices) a certifying gateway asks, and
  // each member's Lagrange coefficient at zero, fixed by configure(). Both
  // are empty when the cluster does not certify reports.
  std::vector<std::uint32_t> signer_set_;
  std::vector<bn::BigUInt> signer_lambdas_;
  struct SignState {  // gateway/coordinator side
    std::uint64_t qid = 0;
    std::string message;
    std::vector<logm::Glsn> glsns;
    std::map<std::uint32_t, bn::BigUInt> nonces;     // index -> R_i
    std::vector<bn::BigUInt> s_shares;
    std::set<std::uint32_t> share_from;  // signer indices already counted
    bn::BigUInt c;
    bn::BigUInt r;
    bool challenged = false;
  };
  std::map<SessionId, SignState> sign_state_;
  // The two answers a user can get (ok iff `error` is empty). Both journal
  // the payload under (user, reqid) for at-least-once replay, then send.
  void reply_audit(
      net::Transport& sim, net::NodeId user, std::uint64_t user_reqid,
      const std::string& error, const std::vector<logm::Glsn>& glsns = {},
      const std::optional<crypto::ThresholdSignature>& cert = std::nullopt);
  void reply_aggregate(net::Transport& sim, net::NodeId user,
                       std::uint64_t user_reqid, const std::string& error,
                       double value = 0.0, std::uint64_t count = 0);
  void reply_user(net::Transport& sim, net::NodeId user,
                  std::uint64_t user_reqid, MsgType type, net::Writer w);
  // Drops an answered query at the gateway, watchdog included.
  void close_query(net::Transport& sim, const QueryState& qs);
  bool query_is_duplicate(net::Transport& sim, net::NodeId user,
                          std::uint64_t user_reqid);

  SessionId fresh_session();
};

}  // namespace dla::audit
