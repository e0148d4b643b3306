// Membership-plane actors: the credential authority and DLA cluster members
// running the evidence-chain join handshake of Figures 6-7.
//
// CaNode blind-signs membership tokens: it sees only the blinded pseudonym
// commitment, so later token spends are unlinkable to the issuance.
//
// MemberNode holds a pseudonym RSA keypair, acquires a token from the CA,
// and participates in the three-phase join:
//   PP  (P_y -> P_x)  policy proposal with the offered service terms,
//   SC  (P_x -> P_y)  service commitment + token + pseudonym key,
//   RE  (P_y -> P_x)  the freshly minted evidence piece and full chain,
//                     transferring the invite authority to P_x.
// A member that invites twice (misconduct, enabled only via
// set_allow_misconduct for the tests) produces the double-invite evidence
// that detect_double_invite() exposes.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>

#include "audit/evidence.hpp"
#include "audit/ledger.hpp"
#include "audit/replay_guard.hpp"
#include "audit/wire.hpp"
#include "net/transport.hpp"

namespace dla::audit {

class CaNode : public net::Node {
 public:
  explicit CaNode(std::string name, crypto::RsaKeyPair key);

  const crypto::RsaPublicKey& public_key() const { return key_.public_key(); }
  std::uint64_t tokens_issued() const { return tokens_issued_; }
  // Duplicated token requests answered from the journal instead of re-signed.
  std::uint64_t replay_drops() const { return replay_drops_; }

  void on_message(net::Transport& sim, const net::Message& msg) override;

 private:
  std::string name_;
  crypto::RsaKeyPair key_;
  std::uint64_t tokens_issued_ = 0;
  std::uint64_t replay_drops_ = 0;
  // At-least-once journal: blind-signing is deterministic, but a duplicated
  // kTokenRequest must not inflate tokens_issued_ (the CA's issuance audit
  // trail) — the remembered signature is replayed instead.
  BoundedJournal<std::pair<net::NodeId, std::uint64_t>, bn::BigUInt>
      token_journal_;
};

class MemberNode : public net::Node {
 public:
  // `pseudonym_bits` sizes the member's pseudonym RSA modulus; 256 keeps
  // tests fast, examples may use 512.
  MemberNode(std::string name, std::uint64_t seed,
             std::size_t pseudonym_bits = 256);

  const std::string& name() const { return name_; }
  std::string pseudonym() const { return pseudonym_hash(key_.public_key()); }
  bool has_token() const { return token_.has_value(); }
  bool has_invite_authority() const { return has_authority_; }
  const EvidenceChain& chain() const { return chain_; }

  // Phase 0: obtain a blind-signed membership token from the CA.
  using TokenCallback = std::function<void(bool ok)>;
  void acquire_token(net::Transport& sim, net::NodeId ca,
                     const crypto::RsaPublicKey& ca_pub, TokenCallback done);

  // Founder bootstrap: self-issue the genesis evidence piece (requires a
  // token) and take the invite authority.
  void found_chain(const std::string& terms);
  // Same, but also publishes the founding Evidence + CertIssue records when
  // the ledger is enabled.
  void found_chain(net::Transport& sim, const std::string& terms);

  // Phase 1: as chain tail, propose membership to `candidate`.
  using JoinCallback = std::function<void(bool ok)>;
  void invite(net::Transport& sim, net::NodeId candidate,
              const std::string& terms, JoinCallback done = nullptr);

  // For the misconduct experiment only: allows inviting after the
  // authority was transferred.
  void set_allow_misconduct(bool allow) { allow_misconduct_ = allow; }

  // Fires on the invitee when the evidence grant lands.
  std::function<void(const EvidenceChain&)> on_joined;

  // --- tamper-evident ledger (docs/LEDGER.md) ---------------------------
  // Join the shared record ledger: installs the `domain` genesis and starts
  // publishing/cross-certifying records with `peers` (the other ledger
  // peers; this node's own id is skipped automatically). Once enabled, the
  // membership handshake emits Evidence and CertIssue records, and
  // renew/revoke below emit the certificate lifecycle records.
  void enable_ledger(const std::string& domain, std::vector<net::NodeId> peers,
                     Ledger::Options opts = Ledger::Options());
  bool ledger_enabled() const { return ledger_peer_.has_value(); }
  LedgerPeer& ledger_peer() { return *ledger_peer_; }
  const LedgerPeer& ledger_peer() const { return *ledger_peer_; }

  // Certificate lifecycle records (require the ledger and a CA token).
  std::optional<std::string> renew_certificate(net::Transport& sim,
                                               std::uint64_t valid_until);
  std::optional<std::string> revoke_certificate(net::Transport& sim,
                                                const std::string& subject);

  // Handshake frames dropped as at-least-once duplicates.
  std::uint64_t replay_drops() const { return replay_drops_; }
  // How many times a (verified) evidence grant promoted this node to chain
  // tail — must stay 1 per join even when the grant frame is duplicated.
  std::uint64_t joins_completed() const { return joins_completed_; }

  // Evidence pieces from grants that failed verification — retained as
  // proof of the issuer's misconduct (feeds detect_double_invite()).
  const std::vector<EvidencePiece>& suspicious_pieces() const {
    return suspicious_pieces_;
  }

  void on_message(net::Transport& sim, const net::Message& msg) override;

 private:
  void handle_token_reply(net::Transport& sim, const net::Message& msg);
  void handle_policy_proposal(net::Transport& sim, const net::Message& msg);
  void handle_service_commitment(net::Transport& sim, const net::Message& msg);
  void handle_evidence_grant(net::Transport& sim, const net::Message& msg);

  std::string name_;
  crypto::ChaCha20Rng rng_;
  crypto::RsaKeyPair key_;
  std::optional<bn::BigUInt> token_;
  std::optional<crypto::RsaPublicKey> ca_pub_;
  bn::BigUInt blind_factor_;
  TokenCallback token_done_;

  EvidenceChain chain_;
  // Snapshot of the chain when this node held the invite authority. An
  // honest node issues exactly one piece on top of it; a misbehaving node
  // reuses it to fork the chain (two pieces with the same predecessor),
  // which is what detect_double_invite() exposes.
  EvidenceChain chain_at_authority_;
  std::vector<EvidencePiece> suspicious_pieces_;
  bool has_authority_ = false;
  bool allow_misconduct_ = false;

  struct PendingInvite {
    std::string terms;
    JoinCallback done;
  };
  std::map<SessionId, PendingInvite> pending_invites_;
  std::uint64_t next_session_ = 1;

  std::optional<LedgerPeer> ledger_peer_;
  // Sessions whose evidence grant was already accepted (or rejected as
  // suspicious): a chaos-duplicated kEvidenceGrant must not re-fire
  // on_joined or re-take the invite authority after it was passed on.
  ReplayGuard grant_sessions_;
  std::uint64_t replay_drops_ = 0;
  std::uint64_t joins_completed_ = 0;
};

}  // namespace dla::audit
