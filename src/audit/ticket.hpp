// Ticket-based access control (Section 4 of the paper, Kerberos-like [28]).
//
// The DLA cluster shares a MAC key; a ticket binds a principal (the user
// node), an operation set, and an expiry into an HMAC-SHA256 tag any DLA
// node can verify locally. Tickets key the access control table of Table 6:
// each glsn assigned by the cluster is recorded under the requesting
// ticket's id.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "crypto/sha256.hpp"
#include "logm/store.hpp"

namespace dla::audit {

struct Ticket {
  std::string id;          // e.g. "T1"
  std::string principal;   // user node name, e.g. "u0"
  std::set<logm::Op> ops;  // operations this ticket authorises
  // Auditor-scope tickets see query results across all glsns; user-scope
  // tickets are filtered to the glsns recorded under their id in the ACL.
  bool auditor = false;
  std::uint64_t expires_at = 0;  // sim time; 0 = never
  crypto::Digest mac{};

  // Stable byte string covered by the MAC.
  std::string authenticated_payload() const;
  void encode(net::Writer& w) const;
  static Ticket decode(net::Reader& r);
};

// Mints and verifies tickets. Every DLA node holds a TicketService with the
// same key (cluster-shared secret), so verification is local.
class TicketService {
 public:
  explicit TicketService(const std::vector<std::uint8_t>& mac_key);

  Ticket issue(std::string id, std::string principal, std::set<logm::Op> ops,
               bool auditor = false, std::uint64_t expires_at = 0) const;

  // MAC check plus expiry against `now`. The MAC is compared in constant
  // time.
  bool verify(const Ticket& ticket, std::uint64_t now) const;
  // MAC check, expiry, and operation membership.
  bool authorizes(const Ticket& ticket, logm::Op op, std::uint64_t now) const;

 private:
  crypto::HmacSha256Key mac_key_;
};

}  // namespace dla::audit
