#include "audit/ticket.hpp"

namespace dla::audit {

std::string Ticket::authenticated_payload() const {
  const std::string expiry = std::to_string(expires_at);
  std::string text;
  text.reserve(id.size() + principal.size() + ops.size() + expiry.size() + 5);
  text += id;
  text += '\n';
  text += principal;
  text += '\n';
  for (logm::Op op : ops) text += logm::to_string(op);
  text += '\n';
  text += auditor ? 'A' : 'u';
  text += '\n';
  text += expiry;
  return text;
}

void Ticket::encode(net::Writer& w) const {
  w.str(id);
  w.str(principal);
  w.u8(static_cast<std::uint8_t>(ops.size()));
  for (logm::Op op : ops) w.u8(static_cast<std::uint8_t>(op));
  w.boolean(auditor);
  w.u64(expires_at);
  net::Bytes mac_bytes(mac.begin(), mac.end());
  w.blob(mac_bytes);
}

Ticket Ticket::decode(net::Reader& r) {
  Ticket t;
  t.id = r.str();
  t.principal = r.str();
  std::uint8_t op_count = r.u8();
  for (std::uint8_t i = 0; i < op_count; ++i) {
    t.ops.insert(static_cast<logm::Op>(r.u8()));
  }
  t.auditor = r.boolean();
  t.expires_at = r.u64();
  net::Bytes mac_bytes = r.blob();
  if (mac_bytes.size() != t.mac.size())
    throw net::CodecError("Ticket::decode: bad MAC length");
  std::copy(mac_bytes.begin(), mac_bytes.end(), t.mac.begin());
  return t;
}

TicketService::TicketService(const std::vector<std::uint8_t>& mac_key)
    : mac_key_(mac_key) {}

Ticket TicketService::issue(std::string id, std::string principal,
                            std::set<logm::Op> ops, bool auditor,
                            std::uint64_t expires_at) const {
  Ticket t;
  t.id = std::move(id);
  t.principal = std::move(principal);
  t.ops = std::move(ops);
  t.auditor = auditor;
  t.expires_at = expires_at;
  t.mac = mac_key_.mac(t.authenticated_payload());
  return t;
}

bool TicketService::verify(const Ticket& ticket, std::uint64_t now) const {
  if (ticket.expires_at != 0 && now > ticket.expires_at) return false;
  return crypto::digest_equal(mac_key_.mac(ticket.authenticated_payload()),
                              ticket.mac);
}

bool TicketService::authorizes(const Ticket& ticket, logm::Op op,
                               std::uint64_t now) const {
  return verify(ticket, now) && ticket.ops.contains(op);
}

}  // namespace dla::audit
