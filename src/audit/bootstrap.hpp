// Deterministic cross-process cluster bootstrap.
//
// The dla_noded daemon hosts a subset of one cluster's actors per OS
// process, yet every process must agree bit-for-bit on the shared
// ClusterConfig — node ids, attribute partition, threshold key material,
// tickets — without exchanging a single coordination message. Everything
// here is therefore a pure function of the bootstrap options (schema,
// dla_count, user_count, seed, certify_reports). Cluster builds its shared
// state with it too, so one simulator process and a daemon fleet agree by
// construction. In particular the canonical id assignment matches
// Simulator::add_node order in Cluster:
//
//   DLA node P_i  ->  NodeId i
//   blind TTP     ->  NodeId dla_count
//   user node u_j ->  NodeId dla_count + 1 + j
//
// which is what makes the simulator a differential oracle for the TCP
// deployment: the same actors get the same ids on both substrates
// (docs/TRANSPORT.md, "Differential methodology").
#pragma once

#include <memory>
#include <vector>

#include "audit/config.hpp"
#include "audit/dla_node.hpp"
#include "audit/ticket.hpp"
#include "audit/ttp_node.hpp"
#include "audit/user_node.hpp"

namespace dla::audit {

struct BootstrapOptions {
  logm::Schema schema;
  std::size_t dla_count = 4;
  std::size_t user_count = 1;
  std::uint64_t seed = 1;
  // Users get auditor-scope tickets when true (results unfiltered).
  bool auditor_users = false;
  // Deal a (majority, n) threshold Schnorr key and co-sign query reports.
  bool certify_reports = false;
  // Secure-set ring chunk size in elements (0 = monolithic frames).
  std::size_t set_chunk_size = 64;
};

// The derived shared state. `shares[i]` is P_i's signing share (present
// only when certify_reports); every process derives the identical vector
// and installs only the shares of the nodes it hosts.
struct Bootstrap {
  ConfigPtr config;
  std::vector<crypto::SignerShare> shares;
  TicketService tickets{ClusterConfig{}.ticket_key};

  static net::NodeId dla_id(std::size_t i) {
    return static_cast<net::NodeId>(i);
  }
  static net::NodeId ttp_id(const BootstrapOptions& opt) {
    return static_cast<net::NodeId>(opt.dla_count);
  }
  static net::NodeId user_id(const BootstrapOptions& opt, std::size_t j) {
    return static_cast<net::NodeId>(opt.dla_count + 1 + j);
  }
};

// Derives the full shared state from the options. Deterministic: two calls
// with equal options yield configs whose encodings are identical, on any
// host.
Bootstrap make_bootstrap(const BootstrapOptions& options);

// Actor factories (names, seeds, chunk size, signing shares, tickets), which
// Cluster uses as well. The caller registers the returned actor with its
// transport under the canonical id above.
std::unique_ptr<DlaNode> make_dla_node(const Bootstrap& boot,
                                       const BootstrapOptions& options,
                                       std::size_t index);
std::unique_ptr<TtpNode> make_ttp_node(const Bootstrap& boot);
std::unique_ptr<UserNode> make_user_node(const Bootstrap& boot,
                                         const BootstrapOptions& options,
                                         std::size_t index);

}  // namespace dla::audit
