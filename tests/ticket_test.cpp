// Tests for the ticket service (Kerberos-like capability MACs).
#include "audit/ticket.hpp"

#include <gtest/gtest.h>

namespace dla::audit {
namespace {

std::vector<std::uint8_t> key() { return {1, 2, 3, 4, 5}; }

TEST(Ticket, IssueAndVerify) {
  TicketService svc(key());
  Ticket t = svc.issue("T1", "u0", {logm::Op::Read, logm::Op::Write});
  EXPECT_TRUE(svc.verify(t, 0));
  EXPECT_TRUE(svc.authorizes(t, logm::Op::Read, 0));
  EXPECT_TRUE(svc.authorizes(t, logm::Op::Write, 0));
  EXPECT_FALSE(svc.authorizes(t, logm::Op::Delete, 0));
}

TEST(Ticket, TamperedFieldsRejected) {
  TicketService svc(key());
  Ticket t = svc.issue("T1", "u0", {logm::Op::Read});
  Ticket forged = t;
  forged.id = "T2";
  EXPECT_FALSE(svc.verify(forged, 0));
  forged = t;
  forged.principal = "mallory";
  EXPECT_FALSE(svc.verify(forged, 0));
  forged = t;
  forged.ops.insert(logm::Op::Delete);
  EXPECT_FALSE(svc.verify(forged, 0));
  forged = t;
  forged.auditor = true;  // privilege escalation attempt
  EXPECT_FALSE(svc.verify(forged, 0));
}

// A forged MAC that differs from the true one in any single byte is
// refused, wherever that byte sits.
TEST(Ticket, EveryMacByteIsChecked) {
  TicketService svc(key());
  const Ticket t = svc.issue("T1", "u0", {logm::Op::Read});
  for (std::size_t i = 0; i < t.mac.size(); ++i) {
    Ticket forged = t;
    forged.mac[i] ^= 0x80;
    EXPECT_FALSE(svc.verify(forged, 0)) << "MAC byte " << i;
  }
}

// The MAC'd text is part of the ticket format: every node must render it
// byte for byte alike, or tickets minted by one fail on another.
TEST(Ticket, AuthenticatedPayloadText) {
  TicketService svc(key());
  EXPECT_EQ(svc.issue("T1", "u0", {logm::Op::Delete, logm::Op::Read}, true,
                      12345)
                .authenticated_payload(),
            "T1\nu0\nRD\nA\n12345");
  EXPECT_EQ(svc.issue("T2", "u1", {}).authenticated_payload(),
            "T2\nu1\n\nu\n0");
}

TEST(Ticket, WrongKeyRejected) {
  TicketService svc(key());
  TicketService other({9, 9, 9});
  Ticket t = svc.issue("T1", "u0", {logm::Op::Read});
  EXPECT_FALSE(other.verify(t, 0));
}

TEST(Ticket, ExpiryEnforced) {
  TicketService svc(key());
  Ticket t = svc.issue("T1", "u0", {logm::Op::Read}, false, 1000);
  EXPECT_TRUE(svc.verify(t, 999));
  EXPECT_TRUE(svc.verify(t, 1000));
  EXPECT_FALSE(svc.verify(t, 1001));
  Ticket forever = svc.issue("T2", "u0", {logm::Op::Read}, false, 0);
  EXPECT_TRUE(svc.verify(forever, UINT64_MAX));
}

TEST(Ticket, AuditorFlagCovered) {
  TicketService svc(key());
  Ticket t = svc.issue("TA", "auditor", {logm::Op::Read}, true);
  EXPECT_TRUE(t.auditor);
  EXPECT_TRUE(svc.verify(t, 0));
}

TEST(Ticket, CodecRoundTrip) {
  TicketService svc(key());
  Ticket t = svc.issue("T1", "u0", {logm::Op::Read, logm::Op::Delete}, true,
                       12345);
  net::Writer w;
  t.encode(w);
  net::Reader r(w.bytes());
  Ticket decoded = Ticket::decode(r);
  EXPECT_EQ(decoded.id, t.id);
  EXPECT_EQ(decoded.principal, t.principal);
  EXPECT_EQ(decoded.ops, t.ops);
  EXPECT_EQ(decoded.auditor, t.auditor);
  EXPECT_EQ(decoded.expires_at, t.expires_at);
  EXPECT_TRUE(svc.verify(decoded, 0));
}

TEST(Ticket, DecodeRejectsBadMacLength) {
  net::Writer w;
  w.str("T1");
  w.str("u0");
  w.u8(0);
  w.boolean(false);
  w.u64(0);
  w.blob({1, 2, 3});  // MAC must be 32 bytes
  net::Reader r(w.bytes());
  EXPECT_THROW(Ticket::decode(r), net::CodecError);
}

}  // namespace
}  // namespace dla::audit
