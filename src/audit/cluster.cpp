#include "audit/cluster.hpp"

#include <cstdlib>
#include <string_view>

#include "net/tcp_relay.hpp"

namespace dla::audit {

namespace {

std::unique_ptr<net::Simulator> make_transport(Cluster::TransportKind kind) {
  const char* env = std::getenv("DLA_TRANSPORT");
  if (env != nullptr) {
    std::string_view choice(env);
    if (choice == "tcp" || choice == "tcp-relay") {
      kind = Cluster::TransportKind::TcpRelay;
    } else if (choice == "sim") {
      kind = Cluster::TransportKind::Sim;
    }
  }
  if (kind == Cluster::TransportKind::TcpRelay) {
    return std::make_unique<net::TcpRelayTransport>();
  }
  return std::make_unique<net::Simulator>();
}

}  // namespace

Cluster::Cluster(Options options)
    : sim_(make_transport(options.transport)) {
  const BootstrapOptions boot_options{
      options.schema,         options.dla_count,      options.user_count,
      options.seed,           options.auditor_users,  options.certify_reports,
      options.set_chunk_size};
  boot_ = make_bootstrap(boot_options);
  // The shared state is a daemon fleet's; on top of it go what a daemon does
  // not take: an explicit partition, replication and heartbeats.
  auto cfg = std::make_shared<ClusterConfig>(*boot_.config);
  if (options.partition) cfg->partition = *options.partition;
  cfg->replication = std::max<std::size_t>(1, options.replication);
  cfg->heartbeat_interval = options.heartbeat_interval;
  boot_.config = std::move(cfg);

  // Actors join the simulator in canonical order, so each gets the id
  // make_bootstrap assigned it.
  for (std::size_t i = 0; i < options.dla_count; ++i) {
    dla_nodes_.push_back(make_dla_node(boot_, boot_options, i));
    if (!options.storage_dir.empty()) {
      const std::string base =
          options.storage_dir + "/node" + std::to_string(i);
      dla_nodes_[i]->set_storage(
          std::make_unique<logm::SegmentEngine>(base + "/primary",
                                                options.storage),
          std::make_unique<logm::SegmentEngine>(base + "/replica",
                                                options.storage));
    }
    sim_->add_node(*dla_nodes_[i]);
  }
  ttp_ = make_ttp_node(boot_);
  sim_->add_node(*ttp_);
  for (std::size_t j = 0; j < options.user_count; ++j) {
    user_nodes_.push_back(make_user_node(boot_, boot_options, j));
    sim_->add_node(*user_nodes_[j]);
  }
  if (options.heartbeat_interval > 0) {
    for (auto& node : dla_nodes_) node->start_heartbeats(*sim_);
  }
}

Ticket Cluster::issue_ticket(const std::string& ticket_id,
                             const std::string& principal,
                             std::set<logm::Op> ops, bool auditor,
                             std::uint64_t expires_at) const {
  return boot_.tickets.issue(ticket_id, principal, std::move(ops), auditor,
                             expires_at);
}

}  // namespace dla::audit
