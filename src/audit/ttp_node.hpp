// Blind TTP coordinator actor (Sections 3.2-3.3, Definition 1).
//
// The TTP receives only *transformed* values W = a*Y + b (mod p for
// equality sessions): it can compare them — equality, order, ranking — but
// never learns the plaintexts, because it is never told (a, b). For batched
// cross-node attribute joins (query pipeline) it pairs two nodes' batches by
// glsn and returns the satisfying glsn set to the designated result owner.
//
// The paper notes "provision must be made to prevent the TTP from leaking
// the results, or to collude" — in this implementation the TTP only ever
// addresses the observers named in the session spec, and the tests assert
// no other node receives result traffic.
#pragma once

#include <map>
#include <vector>

#include "audit/config.hpp"
#include "audit/ledger.hpp"
#include "audit/query.hpp"
#include "audit/replay_guard.hpp"
#include "audit/wire.hpp"
#include "crypto/rng.hpp"

namespace dla::audit {

class TtpNode : public net::Node {
 public:
  explicit TtpNode(std::string name);
  void configure(ConfigPtr cfg);

  const std::string& name() const { return name_; }
  // Number of comparison sessions served (for the benches).
  std::uint64_t sessions_served() const { return sessions_served_; }
  // Messages dropped as at-least-once duplicates of served sessions.
  std::uint64_t replay_drops() const { return replay_drops_; }
  // In-flight comparison/batch entries (plus ledger records parked on
  // missing predecessors); zero once the cluster quiesces.
  std::size_t session_residue() const {
    return cmp_.size() + batches_.size() +
           (ledger_peer_ ? ledger_peer_->pending_residue() : 0);
  }

  // Join the tamper-evident record ledger as a certifying peer: the TTP
  // never originates application records, but its endorsements count toward
  // settlement like any member's (docs/LEDGER.md).
  void enable_ledger(const std::string& domain, std::vector<net::NodeId> peers,
                     Ledger::Options opts = Ledger::Options());
  bool ledger_enabled() const { return ledger_peer_.has_value(); }
  LedgerPeer& ledger_peer() { return *ledger_peer_; }
  const LedgerPeer& ledger_peer() const { return *ledger_peer_; }

  void on_message(net::Transport& sim, const net::Message& msg) override;

 private:
  void handle_cmp_spec(net::Transport& sim, const net::Message& msg);
  void handle_cmp_value(net::Transport& sim, const net::Message& msg);
  void handle_cmp_batch(net::Transport& sim, const net::Message& msg);
  // Commodity-server role of the Du-Atallah scalar product: hand the two
  // parties correlated randomness (ra + rb = Ra.Rb) and step aside.
  void handle_scalar_init(net::Transport& sim, const net::Message& msg);
  void maybe_finish(net::Transport& sim, SessionId session);

  struct CmpState {
    CmpSpec spec;          // transform-free
    bool have_spec = false;
    // (participant index, sender) -> W; unchecked until the spec is known.
    std::map<std::pair<std::uint32_t, net::NodeId>, bn::BigUInt> values;
  };
  struct BatchSide {
    std::vector<CmpBatchEntry> entries;
    bool present = false;
  };
  struct BatchState {
    std::uint64_t qid = 0;
    CmpOp op = CmpOp::Eq;
    net::NodeId result_owner = 0;
    net::NodeId gateway = 0;
    BatchSide sides[2];
  };

  std::string name_;
  ConfigPtr cfg_;
  crypto::ChaCha20Rng rng_;
  std::map<SessionId, CmpState> cmp_;
  std::map<std::uint64_t, BatchState> batches_;
  std::uint64_t sessions_served_ = 0;
  std::uint64_t replay_drops_ = 0;
  // Duplicate-delivery guards: sessions/batches already served must not be
  // resurrected by late copies, and a duplicated kScalarInit must not deal
  // a second (conflicting) randomness pair to the parties.
  ReplayGuard cmp_served_guard_;
  ReplayGuard batch_served_guard_;
  ReplayGuard scalar_init_guard_;
  std::optional<LedgerPeer> ledger_peer_;
};

}  // namespace dla::audit
