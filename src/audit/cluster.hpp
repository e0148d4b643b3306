// Convenience wiring for a complete DLA deployment in one simulator:
// n DLA nodes, one blind TTP, and m application (user) nodes, all sharing
// one ClusterConfig. This is the entry point examples and benchmarks use;
// tests may still wire actors by hand for fault-injection scenarios.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "audit/bootstrap.hpp"
#include "net/sim.hpp"

namespace dla::audit {

class Cluster {
 public:
  // Which backend carries the cluster's traffic. Sim is the plain
  // deterministic simulator; TcpRelay round-trips every frame through a
  // real loopback TCP connection and the hardened frame parser before
  // deterministic delivery, so trace digests must match Sim bit-for-bit
  // (docs/TRANSPORT.md). The DLA_TRANSPORT environment variable ("sim" /
  // "tcp") overrides the per-Options choice, letting CI rerun the entire
  // tier-1 suite over the TCP path without touching the tests.
  enum class TransportKind { Sim, TcpRelay };

  struct Options {
    logm::Schema schema;
    std::size_t dla_count = 4;
    std::size_t user_count = 1;
    // Optional explicit partition; round-robin over dla_count when empty.
    std::optional<logm::AttributePartition> partition;
    std::uint64_t seed = 1;
    // Users get auditor-scope tickets when true (results unfiltered).
    bool auditor_users = false;
    // When true, the cluster deals a (majority, n) threshold Schnorr key
    // and every query result is co-signed by a majority of DLA nodes;
    // QueryOutcome::certified reports verification at the user.
    bool certify_reports = false;
    // Fragment copies per attribute (1 = primary only). With >= 2 plus
    // heartbeats, queries survive a single crashed node.
    std::size_t replication = 1;
    // Failure-detector heartbeat period in simulated us (0 = off).
    net::SimTime heartbeat_interval = 0;
    // Secure-set ring chunk size in elements (0 = legacy monolithic frames).
    std::size_t set_chunk_size = 64;
    // Transport backend; DLA_TRANSPORT=sim|tcp overrides it when set.
    TransportKind transport = TransportKind::Sim;
    // When non-empty, every DLA node stores fragments in a durable
    // logm::SegmentEngine rooted at <storage_dir>/node<i>/{primary,replica}
    // instead of the default in-memory backend; `storage` tunes seal and
    // compaction thresholds (docs/STORAGE.md).
    std::string storage_dir = {};
    logm::SegmentEngine::Options storage = {};
  };

  explicit Cluster(Options options);

  net::Simulator& sim() { return *sim_; }
  const ConfigPtr& config() const { return boot_.config; }
  std::size_t dla_count() const { return dla_nodes_.size(); }
  std::size_t user_count() const { return user_nodes_.size(); }

  DlaNode& dla(std::size_t i) { return *dla_nodes_.at(i); }
  TtpNode& ttp() { return *ttp_; }
  UserNode& user(std::size_t i) { return *user_nodes_.at(i); }
  const TicketService& tickets() const { return boot_.tickets; }

  // Issues an extra ticket signed with the cluster key (e.g. an expired or
  // wrong-scope ticket for negative tests).
  Ticket issue_ticket(const std::string& ticket_id,
                      const std::string& principal, std::set<logm::Op> ops,
                      bool auditor = false, std::uint64_t expires_at = 0) const;

  // Drain the simulator; returns processed event count.
  std::size_t run() { return sim_->run(); }

 private:
  std::unique_ptr<net::Simulator> sim_;
  Bootstrap boot_;
  std::vector<std::unique_ptr<DlaNode>> dla_nodes_;
  std::unique_ptr<TtpNode> ttp_;
  std::vector<std::unique_ptr<UserNode>> user_nodes_;
};

}  // namespace dla::audit
