// Application node actor u_j (Section 2, Figure 2).
//
// A UserNode is an information-system node that (a) logs its transaction
// events confidentially — request a cluster-assigned glsn, fragment the
// record by the attribute partition, and deliver each fragment to its DLA
// node together with the record's one-way-accumulator digest — and (b)
// initiates auditing queries against the cluster and receives the glsn sets
// (and, with an authorized ticket, the matching log pieces).
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "audit/config.hpp"
#include "audit/ticket.hpp"
#include "audit/wire.hpp"
#include "crypto/accumulator.hpp"

namespace dla::audit {

struct QueryOutcome {
  bool ok = false;
  std::string error;
  std::vector<logm::Glsn> glsns;
  // True when the result carried a threshold co-signature from the cluster
  // and it verified against the cluster's public threshold key.
  bool certified = false;
};

struct AggregateOutcome {
  bool ok = false;
  std::string error;
  double value = 0.0;      // the aggregate (count for AggOp::Count)
  std::uint64_t count = 0; // matching records that carried the attribute
};

class UserNode : public net::Node {
 public:
  explicit UserNode(std::string name);
  void configure(ConfigPtr cfg, Ticket ticket);

  const std::string& name() const { return name_; }
  const Ticket& ticket() const { return ticket_; }

  // By default requests round-robin across DLA gateways; pin to one
  // cluster index to steer around a known-bad node (or for tests).
  void set_gateway(std::size_t cluster_index) { pinned_gateway_ = cluster_index; }
  void clear_gateway() { pinned_gateway_.reset(); }

  // Confidential logging path. Invokes `done` with the assigned glsn
  // (nullopt when the cluster refused the write). The attrs map must use
  // schema attribute names.
  using LogCallback = std::function<void(std::optional<logm::Glsn>)>;
  void log_record(net::Transport& sim, std::map<std::string, logm::Value> attrs,
                  LogCallback done);

  // Confidential audit query (criterion text per audit/query.hpp grammar).
  using QueryCallback = std::function<void(QueryOutcome)>;
  void query(net::Transport& sim, std::string criterion, QueryCallback done);

  // Confidential aggregate (abstract: "number of transactions, total of
  // volumes" without accessing raw data). For value aggregates, `attr`
  // names a numeric attribute; per-record values never leave its owner
  // node. For AggOp::Count, `attr` is ignored.
  using AggregateCallback = std::function<void(AggregateOutcome)>;
  void aggregate_query(net::Transport& sim, std::string criterion, AggOp op,
                       std::string attr, AggregateCallback done);

  // Retrieve one fragment of an authorized record from DLA node P_i.
  using FetchCallback = std::function<void(std::optional<logm::Fragment>)>;
  void fetch_fragment(net::Transport& sim, std::size_t node_index,
                      logm::Glsn glsn, FetchCallback done);

  // Reassemble a full record from its fragments across the cluster — the
  // paper's "return log pieces that meet the auditing criteria". Requires
  // read authorization on every node; yields nullopt if any fragment was
  // denied or missing.
  using RecordCallback = std::function<void(std::optional<logm::LogRecord>)>;
  void fetch_record(net::Transport& sim, logm::Glsn glsn, RecordCallback done);

  // Delete an owned record from every DLA node (requires a ticket with the
  // Delete operation). The callback receives true only when every node
  // confirmed the removal.
  using DeleteCallback = std::function<void(bool all_deleted)>;
  void delete_record(net::Transport& sim, logm::Glsn glsn,
                     DeleteCallback done);

  void on_message(net::Transport& sim, const net::Message& msg) override;

  // Outstanding request-tracking entries. A drained fault-free run must
  // leave zero behind; the invariant explorer asserts that.
  std::size_t pending_residue() const {
    return pending_logs_.size() + glsn_to_reqid_.size() +
           pending_queries_.size() + pending_aggregates_.size() +
           pending_fetches_.size() + pending_deletes_.size();
  }

 private:
  void handle_glsn_reply(net::Transport& sim, const net::Message& msg);
  void handle_log_ack(net::Transport& sim, const net::Message& msg);
  void handle_audit_result(net::Transport& sim, const net::Message& msg);
  void handle_fragment_reply(net::Transport& sim, const net::Message& msg);
  void handle_delete_reply(net::Transport& sim, const net::Message& msg);
  void handle_aggregate_result(net::Transport& sim, const net::Message& msg);
  net::NodeId pick_gateway();

  struct PendingLog {
    std::map<std::string, logm::Value> attrs;
    LogCallback done;
    logm::Glsn glsn = 0;
    // Acks are counted per (node, copy_seq) so a duplicated kLogAck cannot
    // masquerade as the ack of a copy that was actually dropped.
    std::set<std::pair<net::NodeId, std::uint32_t>> ack_from;
    bool failed = false;
  };

  std::string name_;
  ConfigPtr cfg_;
  Ticket ticket_;
  std::optional<crypto::AccumulatorStepper> accum_stepper_;  // deposits
  std::uint64_t next_reqid_ = 1;
  std::uint64_t gateway_rr_ = 0;  // round-robin over DLA nodes
  std::optional<std::size_t> pinned_gateway_;

  std::map<std::uint64_t, PendingLog> pending_logs_;   // by reqid
  std::map<logm::Glsn, std::uint64_t> glsn_to_reqid_;  // ack correlation
  std::map<std::uint64_t, QueryCallback> pending_queries_;
  std::map<std::uint64_t, AggregateCallback> pending_aggregates_;
  std::map<std::uint64_t, FetchCallback> pending_fetches_;
  struct PendingDelete {
    DeleteCallback done;
    std::set<net::NodeId> responders;  // deduped: one reply per node counts
    bool all_ok = true;
  };
  std::map<std::uint64_t, PendingDelete> pending_deletes_;
};

}  // namespace dla::audit
