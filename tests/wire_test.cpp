// Tests for the audit wire payloads and robustness against malformed
// messages.
#include "audit/wire.hpp"

#include <gtest/gtest.h>

#include "audit/cluster.hpp"
#include "logm/workload.hpp"

namespace dla::audit {
namespace {

TEST(Wire, SetSpecRoundTrip) {
  SetSpec spec;
  spec.session = 42;
  spec.op = SetOp::Union;
  spec.purpose = SetPurpose::AclEntries;
  spec.participants = {3, 1, 4};
  spec.collector = 1;
  spec.observers = {5, 9};
  net::Writer w;
  spec.encode(w);
  net::Reader r(w.bytes());
  SetSpec decoded = SetSpec::decode(r);
  EXPECT_EQ(decoded.session, 42u);
  EXPECT_EQ(decoded.op, SetOp::Union);
  EXPECT_EQ(decoded.purpose, SetPurpose::AclEntries);
  EXPECT_EQ(decoded.participants, spec.participants);
  EXPECT_EQ(decoded.collector, 1u);
  EXPECT_EQ(decoded.observers, spec.observers);
}

TEST(Wire, SumSpecRoundTrip) {
  SumSpec spec;
  spec.session = 7;
  spec.participants = {0, 1, 2};
  spec.threshold_k = 2;
  spec.collector = 0;
  spec.observers = {2};
  spec.weights = {bn::BigUInt(1), bn::BigUInt(5), bn::BigUInt(7)};
  net::Writer w;
  spec.encode(w);
  net::Reader r(w.bytes());
  SumSpec decoded = SumSpec::decode(r);
  EXPECT_EQ(decoded.threshold_k, 2u);
  EXPECT_EQ(decoded.weights.size(), 3u);
  EXPECT_EQ(decoded.weights[1], bn::BigUInt(5));
}

TEST(Wire, CmpSpecTransformVisibility) {
  CmpSpec spec;
  spec.session = 9;
  spec.op = CmpOpKind::Max;
  spec.participants = {0, 1};
  spec.ttp = 5;
  spec.observers = {0};
  spec.a = bn::BigUInt(17);
  spec.b = bn::BigUInt(23);

  // Participant copy carries the transform...
  net::Writer with;
  spec.encode(with, true);
  net::Reader r1(with.bytes());
  CmpSpec p = CmpSpec::decode(r1, true);
  EXPECT_EQ(p.a, bn::BigUInt(17));

  // ...the TTP copy does not (and the decoder enforces the expectation).
  net::Writer without;
  spec.encode(without, false);
  net::Reader r2(without.bytes());
  CmpSpec t = CmpSpec::decode(r2, false);
  EXPECT_TRUE(t.a.is_zero());
  net::Reader r3(without.bytes());
  EXPECT_THROW(CmpSpec::decode(r3, true), net::CodecError);
}

TEST(Wire, GlsnElementRoundTrip) {
  for (logm::Glsn g : {logm::Glsn{0}, logm::Glsn{1}, logm::Glsn{0x139aef78},
                       logm::Glsn{UINT32_MAX}, logm::Glsn{UINT64_MAX - 1}}) {
    bn::BigUInt e = encode_glsn_element(g);
    EXPECT_EQ(decode_glsn_element(e), g);
    // Fits the 256-bit Pohlig-Hellman domain.
    EXPECT_LT(e.bit_length(), 256u);
  }
}

TEST(Wire, GlsnElementValueIsPinned) {
  // (glsn + 1) << 160 | the low 160 bits of SHA-256("").
  EXPECT_EQ(encode_glsn_element(0x139aef78),
            bn::BigUInt::from_hex(
                "139aef79996fb92427ae41e4649b934ca495991b7852b855"));
}

TEST(Wire, GlsnElementDecodeRejectsForeignValues) {
  const bn::BigUInt e = encode_glsn_element(7);
  const bn::BigUInt tail = e - (bn::BigUInt(8) << 160);
  EXPECT_EQ(decode_glsn_element(e + bn::BigUInt(1)), std::nullopt);  // tail
  EXPECT_EQ(decode_glsn_element(tail), std::nullopt);       // high part 0
  EXPECT_EQ(decode_glsn_element((bn::BigUInt(1) << 224) + tail),
            std::nullopt);                                  // high part 2^64
  EXPECT_EQ(decode_glsn_element(bn::BigUInt(0)), std::nullopt);
  EXPECT_EQ(decode_glsn_element((bn::BigUInt(UINT64_MAX) << 160) + tail),
            UINT64_MAX - 1);                                // high 2^64 - 1
}

TEST(Wire, EnumRenderings) {
  EXPECT_EQ(to_string(AggOp::Count), "COUNT");
  EXPECT_EQ(to_string(AggOp::Sum), "SUM");
  EXPECT_EQ(to_string(AggOp::Max), "MAX");
  EXPECT_EQ(to_string(AggOp::Min), "MIN");
  EXPECT_EQ(to_string(AggOp::Avg), "AVG");
  EXPECT_EQ(logm::to_string(logm::Op::Read), "R");
  EXPECT_EQ(logm::to_string(logm::Op::Write), "W");
  EXPECT_EQ(logm::to_string(logm::Op::Delete), "D");
  EXPECT_EQ(logm::to_string(logm::ValueType::Int), "int");
  EXPECT_EQ(logm::to_string(logm::ValueType::Real), "real");
  EXPECT_EQ(logm::to_string(logm::ValueType::Text), "text");
  EXPECT_EQ(to_string(CmpOp::Le), "<=");
  EXPECT_EQ(negate(CmpOp::Le), CmpOp::Gt);
}

TEST(Wire, ReportMessageBindsRequestAndGlsns) {
  std::string a = report_message(1, {10, 20});
  EXPECT_EQ(a, report_message(1, {10, 20}));
  EXPECT_NE(a, report_message(2, {10, 20}));   // different request
  EXPECT_NE(a, report_message(1, {10, 21}));   // different set
  EXPECT_NE(a, report_message(1, {10}));       // different cardinality
}

TEST(Wire, MalformedPayloadsDoNotCrashNodes) {
  Cluster cluster(Cluster::Options{logm::paper_schema(), 3, 1,
                                   std::nullopt, 1, true});
  // Garbage at every protocol message type, plus unknown types: the retired
  // ids 0x14, 0x22, 0x82, 0x84 and 0x88 and one never assigned.
  std::vector<std::uint32_t> types = {
      kGlsnRequest, kGlsnForward, kGlsnPropose,   kGlsnVote,
      0x14,         kGlsnReply,   kLogFragment,   0x22,
      kFragmentRequest, kFragmentDelete, kSetStart, kSetRing,
      kSetFull,     kSetDecrypt,  kSetResult,     kSumStart,
      kSumShare,    kSumEval,     kSumResult,     kCmpParams,
      kCmpResult,   kRankResult,  kIntegrityPass, kAuditQuery,
      0x82,         kJoinExec,    kCombineExec,   0x88,
      kSubqueryDone, kCmpBatchResult, 0x84, kSubqueryData,
      0xdeadbeef};
  net::NodeId target = cluster.config()->dla_nodes[0];
  net::NodeId user_id = cluster.user(0).id();
  for (std::uint32_t type : types) {
    cluster.sim().send(cluster.config()->dla_nodes[1], target, type,
                       {0x01, 0x02, 0x03});
    cluster.sim().send(target, user_id, type, {0xFF});
  }
  EXPECT_NO_THROW(cluster.run());
  // The cluster still works afterwards.
  std::optional<logm::Glsn> assigned;
  cluster.user(0).log_record(cluster.sim(),
                             logm::paper_table1_records()[0].attrs,
                             [&](std::optional<logm::Glsn> g) { assigned = g; });
  cluster.run();
  ASSERT_TRUE(assigned.has_value());
}

}  // namespace
}  // namespace dla::audit
