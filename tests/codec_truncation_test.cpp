// Truncation differential for the wire codecs (docs/TRANSPORT.md).
//
// Two layers:
//  1. Struct codecs: encode a representative value, then decode every strict
//     byte prefix — each must throw net::CodecError, never crash, loop, or
//     return a half-value.
//  2. Live traffic: capture every payload a real cluster workload delivers
//     (via Simulator::set_deliver_hook), then replay truncated and
//     trailing-garbage variants at the original recipients. No exception may
//     escape an actor, and the audit::WireRejectCounters must account for
//     the hostile frames.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "audit/cluster.hpp"
#include "audit/evidence.hpp"
#include "audit/ledger.hpp"
#include "audit/metrics.hpp"
#include "audit/transaction_audit.hpp"
#include "audit/wire.hpp"
#include "logm/workload.hpp"
#include "net/bytes.hpp"

namespace dla::audit {
namespace {

// Decode every strict prefix of `wire`; each must throw CodecError.
template <typename DecodeFn>
void expect_all_prefixes_throw(const net::Bytes& wire, DecodeFn decode,
                               const char* what) {
  for (std::size_t len = 0; len < wire.size(); ++len) {
    net::Bytes prefix(wire.begin(),
                      wire.begin() + static_cast<std::ptrdiff_t>(len));
    net::Reader r(prefix);
    EXPECT_THROW(decode(r), net::CodecError)
        << what << ": prefix of " << len << "/" << wire.size()
        << " bytes decoded without error";
  }
}

TEST(CodecTruncation, SetSpecRejectsEveryStrictPrefix) {
  SetSpec spec;
  spec.session = 0x1122334455667788ull;
  spec.op = SetOp::Union;
  spec.purpose = SetPurpose::AclEntries;
  spec.participants = {0, 1, 2, 3};
  spec.collector = 2;
  spec.observers = {5, 6};
  net::Writer w;
  spec.encode(w);
  expect_all_prefixes_throw(std::move(w).take(), [](net::Reader& r) {
    return SetSpec::decode(r);
  }, "SetSpec");
}

TEST(CodecTruncation, SetChunkHeaderRejectsEveryStrictPrefix) {
  SetChunkHeader hdr;
  hdr.origin = 3;
  hdr.ring_id = kRingDecrypt;
  hdr.chunk_seq = 7;
  hdr.n_chunks = 9;
  net::Writer w;
  hdr.encode(w);
  expect_all_prefixes_throw(std::move(w).take(), [](net::Reader& r) {
    return SetChunkHeader::decode(r);
  }, "SetChunkHeader");
}

TEST(CodecTruncation, SumSpecRejectsEveryStrictPrefix) {
  SumSpec spec;
  spec.session = 42;
  spec.participants = {0, 1, 2};
  spec.threshold_k = 2;
  spec.collector = 1;
  spec.observers = {5};
  spec.weights = {bn::BigUInt(7), bn::BigUInt(11), bn::BigUInt(13)};
  net::Writer w;
  spec.encode(w);
  expect_all_prefixes_throw(std::move(w).take(), [](net::Reader& r) {
    return SumSpec::decode(r);
  }, "SumSpec");
}

TEST(CodecTruncation, CmpSpecRejectsEveryStrictPrefix) {
  CmpSpec spec;
  spec.session = 77;
  spec.op = CmpOpKind::Rank;
  spec.participants = {0, 1, 2, 3};
  spec.ttp = 4;
  spec.observers = {6};
  spec.a = bn::BigUInt(123456789);
  spec.b = bn::BigUInt(987654321);
  for (bool transform : {true, false}) {
    net::Writer w;
    spec.encode(w, transform);
    expect_all_prefixes_throw(std::move(w).take(), [transform](net::Reader& r) {
      return CmpSpec::decode(r, transform);
    }, transform ? "CmpSpec+transform" : "CmpSpec");
  }
}

TEST(CodecTruncation, TicketRejectsEveryStrictPrefix) {
  TicketService service(std::vector<std::uint8_t>(32, 0x5a));
  Ticket ticket = service.issue("T9", "u0", {logm::Op::Read, logm::Op::Write},
                                /*auditor=*/true, /*expires_at=*/123456);
  net::Writer w;
  ticket.encode(w);
  expect_all_prefixes_throw(std::move(w).take(), [](net::Reader& r) {
    return Ticket::decode(r);
  }, "Ticket");
}

TEST(CodecTruncation, RecordAndFragmentRejectEveryStrictPrefix) {
  const auto records = logm::paper_table1_records();
  ASSERT_FALSE(records.empty());
  logm::LogRecord record = records.front();
  record.glsn = 17;
  net::Writer rw;
  record.encode(rw);
  expect_all_prefixes_throw(std::move(rw).take(), [](net::Reader& r) {
    return logm::LogRecord::decode(r);
  }, "LogRecord");

  const auto partition =
      logm::AttributePartition::round_robin(logm::paper_schema(), 4);
  for (const logm::Fragment& frag : partition.fragment(record)) {
    net::Writer fw;
    frag.encode(fw);
    expect_all_prefixes_throw(std::move(fw).take(), [](net::Reader& r) {
      return logm::Fragment::decode(r);
    }, "Fragment");
  }
}

// Decode the full payload plus one garbage byte; expect_end must throw.
// (Decoding itself may also throw when the extra byte turns a trailing
// variable-width field inconsistent — either rejection is legal.)
template <typename DecodeFn>
void expect_trailing_garbage_throws(const net::Bytes& wire, DecodeFn decode,
                                    const char* what) {
  net::Bytes noisy = wire;
  noisy.push_back(0x5a);
  net::Reader r(noisy);
  EXPECT_THROW(
      {
        (void)decode(r);
        r.expect_end();
      },
      net::CodecError)
      << what << ": payload with trailing garbage decoded without error";
}

// Exhaustive hostile-variant sweep for one struct codec: every strict byte
// prefix plus the trailing-garbage variant.
template <typename DecodeFn>
void expect_hostile_variants_throw(net::Bytes wire, DecodeFn decode,
                                   const char* what) {
  expect_all_prefixes_throw(wire, decode, what);
  expect_trailing_garbage_throws(wire, decode, what);
}

TEST(CodecTruncation, EvidencePieceRejectsEveryHostileVariant) {
  crypto::ChaCha20Rng rng(2026);
  const auto key = crypto::RsaKeyPair::generate(rng, 256);
  EvidencePiece piece;
  piece.index = 3;
  piece.prev_hash = "3c0ffee5";
  piece.issuer_pseudonym = pseudonym_hash(key.public_key());
  piece.issuer_pub = key.public_key();
  piece.invitee_pseudonym = "deadbeefcafe";
  piece.invitee_token = bn::BigUInt(0x123456789abcull);
  piece.terms = "audit logm traffic for domain X";
  piece.issuer_sig = key.sign(piece.canonical());
  net::Writer w;
  piece.encode(w);
  expect_hostile_variants_throw(std::move(w).take(), [](net::Reader& r) {
    return EvidencePiece::decode(r);
  }, "EvidencePiece");
}

TEST(CodecTruncation, LedgerRecordRejectsEveryHostileVariant) {
  crypto::ChaCha20Rng rng(2027);
  const auto key = crypto::RsaKeyPair::generate(rng, 256);
  CheckpointPayload cp;
  cp.epoch = 4;
  cp.high_glsn = 43;
  cp.accumulator = bn::BigUInt(987654321u);
  cp.manifest_hash = "manifest-4";
  net::Writer pw;
  cp.encode(pw);
  LedgerRecord rec =
      make_ledger_record(RecordKind::Checkpoint, key, 7,
                         {"aaaa1111", "bbbb2222"}, std::move(pw).take());
  net::Writer w;
  rec.encode(w);
  expect_hostile_variants_throw(std::move(w).take(), [](net::Reader& r) {
    return LedgerRecord::decode(r);
  }, "LedgerRecord");
}

TEST(CodecTruncation, LedgerPayloadsRejectEveryHostileVariant) {
  CheckpointPayload cp;
  cp.epoch = 9;
  cp.high_glsn = 93;
  cp.accumulator = bn::BigUInt(0xfeedfaceull);
  cp.manifest_hash = "manifest-9";
  net::Writer cw;
  cp.encode(cw);
  expect_hostile_variants_throw(std::move(cw).take(), [](net::Reader& r) {
    return CheckpointPayload::decode(r);
  }, "CheckpointPayload");

  crypto::ChaCha20Rng rng(2028);
  const auto key = crypto::RsaKeyPair::generate(rng, 256);
  CertPayload cert;
  cert.subject = pseudonym_hash(key.public_key());
  cert.subject_n = key.public_key().n;
  cert.subject_e = key.public_key().e;
  cert.ca_token = bn::BigUInt(424242u);
  cert.valid_until = 99999;
  net::Writer kw;
  cert.encode(kw);
  expect_hostile_variants_throw(std::move(kw).take(), [](net::Reader& r) {
    return CertPayload::decode(r);
  }, "CertPayload");

  TransactionAuditReport rep;
  rep.tsn = 17;
  rep.conforms = false;
  rep.verdicts.push_back(RuleVerdict{0, true, ""});
  rep.verdicts.push_back(RuleVerdict{1, false, "limit exceeded"});
  net::Writer rw;
  rep.encode(rw);
  expect_hostile_variants_throw(std::move(rw).take(), [](net::Reader& r) {
    return TransactionAuditReport::decode(r);
  }, "TransactionAuditReport");
}

// ---- live-capture differential -------------------------------------------

struct Captured {
  net::NodeId src = 0;
  net::NodeId dst = 0;
  std::uint32_t type = 0;
  net::Bytes payload;
};

// Runs the full confidential workload (log -> query -> AND-query ->
// aggregate) and returns every delivered payload, deduplicated and capped
// per message type to keep the replay campaign bounded.
std::vector<Captured> capture_workload(Cluster& cluster) {
  constexpr std::size_t kSamplesPerType = 3;
  std::map<std::uint32_t, std::set<net::Bytes>> seen;
  std::vector<Captured> captured;
  cluster.sim().set_deliver_hook([&](const net::Message& msg) {
    auto& bucket = seen[msg.type];
    if (bucket.size() >= kSamplesPerType) return;
    if (!bucket.insert(msg.payload).second) return;
    captured.push_back({msg.src, msg.dst, msg.type, msg.payload});
  });

  UserNode& user = cluster.user(0);
  std::size_t logged = 0;
  for (const auto& rec : logm::paper_table1_records()) {
    user.log_record(cluster.sim(), rec.attrs,
                    [&](std::optional<logm::Glsn> glsn) {
                      if (glsn.has_value()) ++logged;
                    });
  }
  cluster.run();
  EXPECT_EQ(logged, logm::paper_table1_records().size());

  std::optional<QueryOutcome> single, cross;
  user.query(cluster.sim(), "protocl = 'UDP'",
             [&](QueryOutcome o) { single = std::move(o); });
  cluster.run();
  user.query(cluster.sim(), "protocl = 'UDP' AND C1 >= 30",
             [&](QueryOutcome o) { cross = std::move(o); });
  cluster.run();
  EXPECT_TRUE(single.has_value() && single->ok);
  EXPECT_TRUE(cross.has_value() && cross->ok);

  std::optional<AggregateOutcome> agg;
  user.aggregate_query(cluster.sim(), "protocl = 'UDP'", AggOp::Sum, "C1",
                       [&](AggregateOutcome o) { agg = o; });
  cluster.run();
  EXPECT_TRUE(agg.has_value() && agg->ok);

  cluster.sim().set_deliver_hook(nullptr);
  return captured;
}

// Strict prefix lengths to replay for a payload: every length for short
// payloads, else the full header region plus an even sample of the tail.
// The cap is a runtime bound only — the pure-codec tests above already
// cover every strict prefix of each struct codec exhaustively.
std::vector<std::size_t> prefix_lengths(std::size_t size) {
  std::vector<std::size_t> lens;
  if (size <= 96) {
    for (std::size_t len = 0; len < size; ++len) lens.push_back(len);
    return lens;
  }
  for (std::size_t len = 0; len < 48; ++len) lens.push_back(len);
  const std::size_t step = (size - 48) / 32 + 1;
  for (std::size_t len = 48; len < size; len += step) lens.push_back(len);
  lens.push_back(size - 1);
  return lens;
}

TEST(CodecTruncation, LiveTrafficSurvivesTruncationReplay) {
  Cluster::Options options;
  options.schema = logm::paper_schema();
  options.dla_count = 4;
  options.user_count = 1;
  options.auditor_users = true;
  // No report certification: threshold signing dominates runtime without
  // adding codec surface here (the kSign* wire family is exercised over
  // both transports by transport_differential_test instead).
  options.certify_reports = false;
  options.seed = 20260808;
  Cluster cluster(options);

  std::vector<Captured> captured = capture_workload(cluster);
  ASSERT_FALSE(captured.empty());

  // The workload must have exercised the protocol surface we claim to
  // harden: sequencing, logging, the query pipeline, the secure-set ring,
  // and report certification.
  std::set<std::uint32_t> types;
  for (const Captured& c : captured) types.insert(c.type);
  for (std::uint32_t required :
       {kGlsnRequest, kGlsnPropose, kLogFragment, kAuditQuery, kCombineExec,
        kSetRing, kAggregateExec}) {
    EXPECT_TRUE(types.count(required))
        << "workload never delivered type 0x" << std::hex << required;
  }
  EXPECT_GE(types.size(), 15u);

  reset_wire_reject_counters();
  std::size_t replayed = 0;
  for (const Captured& c : captured) {
    for (std::size_t len : prefix_lengths(c.payload.size())) {
      net::Bytes prefix(c.payload.begin(),
                        c.payload.begin() + static_cast<std::ptrdiff_t>(len));
      // Must not throw out of the actor, crash, or hang the simulator.
      cluster.sim().send(c.src, c.dst, c.type, std::move(prefix));
      cluster.run();
      ++replayed;
    }
  }
  ASSERT_GT(replayed, 100u);
  const WireRejectCounters after_truncation = wire_reject_counters();
  // Most prefixes are structurally invalid (replay-guarded duplicates are
  // dropped before their payload is fully decoded), so the reject counters
  // must have absorbed the bulk of the campaign.
  EXPECT_GT(after_truncation.codec_rejects, replayed / 2);

  // Trailing garbage: payload decodes fully, then one extra byte. Every
  // actor must reject it via Reader::expect_end, unless a replay guard
  // drops the frame first.
  reset_wire_reject_counters();
  std::size_t extended = 0;
  for (const Captured& c : captured) {
    net::Bytes noisy = c.payload;
    noisy.push_back(0x5a);
    cluster.sim().send(c.src, c.dst, c.type, std::move(noisy));
    cluster.run();
    ++extended;
  }
  const WireRejectCounters after_trailing = wire_reject_counters();
  EXPECT_GT(after_trailing.trailing_rejects, 0u);
  EXPECT_GE(after_trailing.codec_rejects + after_trailing.trailing_rejects +
                after_trailing.parse_rejects,
            extended / 2);

  // The cluster is still alive: the cross-node query answers correctly
  // after the entire hostile campaign.
  std::optional<QueryOutcome> outcome;
  cluster.user(0).query(cluster.sim(), "protocl = 'UDP' AND C1 >= 30",
                        [&](QueryOutcome o) { outcome = std::move(o); });
  cluster.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->ok);
  EXPECT_EQ(outcome->glsns.size(), 2u);
}

// A ring-less kCombineExec from a hand-built gateway: staged `inputs` and
// local `exprs` merged under AND, answered in `reply` mode (the byte is left
// out when `reply` is empty).
net::Bytes ringless_combine(std::uint64_t rid,
                            const std::vector<std::uint64_t>& inputs,
                            const std::vector<std::string>& exprs,
                            std::optional<std::uint8_t> reply) {
  net::Writer w;
  w.u64(1);  // qid
  w.u64(rid);
  w.boolean(true);  // AND
  w.vec(inputs, [](net::Writer& out, std::uint64_t in) { out.u64(in); });
  w.vec(exprs, [](net::Writer& out, const std::string& e) { out.str(e); });
  w.boolean(false);  // no ring
  if (reply.has_value()) w.u8(*reply);
  return std::move(w).take();
}

// kLogFragment's trailing deposit and a ring-less kCombineExec's reply byte
// are mandatory: a frame that stops right before either is rejected by the
// owner's real handler and changes no state. The complete frame is the
// control.
TEST(CodecTruncation, MissingMandatoryTrailingFieldIsRejected) {
  Cluster::Options options;
  options.schema = logm::paper_schema();
  options.partition = logm::paper_partition();
  Cluster cluster(options);
  DlaNode& owner = cluster.dla(0);
  const net::NodeId user = cluster.user(0).id();
  auto codec_rejects_of = [&](MsgType type, net::Bytes payload) {
    reset_wire_reject_counters();
    cluster.sim().send(user, owner.id(), type, std::move(payload));
    cluster.run();
    return wire_reject_counters().codec_rejects;
  };

  logm::LogRecord record = logm::paper_table1_records().front();
  record.glsn = 77;
  net::Writer log;
  cluster.user(0).ticket().encode(log);
  log.boolean(false);  // is_replica
  cluster.config()->partition.fragment(record)[0].encode(log);
  log.u32(0);  // copy_seq
  const net::Bytes log_without_deposit = log.bytes();
  log.big(bn::BigUInt(12345));  // deposit
  EXPECT_EQ(codec_rejects_of(kLogFragment, log_without_deposit), 1u);
  EXPECT_EQ(owner.storage().size(), 0u);
  EXPECT_EQ(owner.replica_storage().size(), 0u);
  EXPECT_TRUE(owner.deposits().empty());
  EXPECT_TRUE(owner.acl().ticket_ids().empty());
  EXPECT_EQ(codec_rejects_of(kLogFragment, std::move(log).take()), 0u);
  EXPECT_EQ(owner.storage().size(), 1u);
  EXPECT_EQ(owner.deposits().at(77), bn::BigUInt(12345));

  EXPECT_EQ(codec_rejects_of(kCombineExec,
                             ringless_combine(2, {}, {"Time > 0"}, {})),
            1u);
  EXPECT_EQ(owner.session_residue(), 0u);  // no result set buffered
  EXPECT_EQ(codec_rejects_of(kCombineExec,
                             ringless_combine(3, {}, {"Time > 0"}, 0)),
            0u);  // stage
  EXPECT_EQ(owner.session_residue(), 1u);
  reset_wire_reject_counters();
}

// The reply byte of a ring-less kCombineExec is 0 (stage), 1 (count) or
// 2 (set); any other value is rejected before the owner touches any state,
// so the same rid still executes once a well-formed frame arrives.
TEST(CodecTruncation, UnknownSubqueryReplyModeIsRejected) {
  Cluster::Options options;
  options.schema = logm::paper_schema();
  options.partition = logm::paper_partition();
  Cluster cluster(options);
  DlaNode& owner = cluster.dla(0);
  const net::NodeId gateway = cluster.dla(1).id();
  auto exec = [&](std::uint8_t reply) {
    reset_wire_reject_counters();
    cluster.sim().send(gateway, owner.id(), kCombineExec,
                       ringless_combine(9, {}, {"Time > 0"}, reply));
    cluster.run();
  };
  exec(3);
  EXPECT_EQ(wire_reject_counters().codec_rejects, 1u);
  EXPECT_EQ(owner.session_residue(), 0u);
  EXPECT_EQ(owner.replay_drops(), 0u);
  exec(0);
  EXPECT_EQ(wire_reject_counters().codec_rejects, 0u);
  EXPECT_EQ(owner.replay_drops(), 0u);
  EXPECT_EQ(owner.session_residue(), 1u);  // the rid was still fresh
  reset_wire_reject_counters();
}

// A kCombineExec whose local expression does not parse is refused before
// the owner marks its rid or consumes a staged input, so the genuine frame
// for that rid still merges the input and answers.
TEST(CodecTruncation, UnparseableCombineExpressionChangesNothing) {
  Cluster::Options options;
  options.schema = logm::paper_schema();
  options.partition = logm::paper_partition();
  Cluster cluster(options);
  DlaNode& owner = cluster.dla(0);
  const net::NodeId gateway = cluster.dla(1).id();
  std::vector<std::uint32_t> answers;
  cluster.sim().set_deliver_hook([&](const net::Message& msg) {
    if (msg.dst == gateway) answers.push_back(msg.type);
  });
  auto exec = [&](net::Bytes payload) {
    reset_wire_reject_counters();
    answers.clear();
    cluster.sim().send(gateway, owner.id(), kCombineExec, std::move(payload));
    cluster.run();
  };
  exec(ringless_combine(4, {}, {"Time > 0"}, 0));  // stage rid 4
  ASSERT_EQ(owner.session_residue(), 1u);
  exec(ringless_combine(5, {4}, {"Time >"}, 2));
  EXPECT_EQ(wire_reject_counters().parse_rejects, 1u);
  EXPECT_EQ(owner.session_residue(), 1u);  // rid 4 still staged
  EXPECT_EQ(owner.replay_drops(), 0u);
  EXPECT_TRUE(answers.empty());
  exec(ringless_combine(5, {4}, {"Time > 0"}, 2));
  EXPECT_EQ(wire_reject_counters().parse_rejects, 0u);
  EXPECT_EQ(owner.replay_drops(), 0u);  // rid 5 was still fresh
  EXPECT_EQ(owner.session_residue(), 0u);  // rid 4 consumed
  EXPECT_EQ(answers, std::vector<std::uint32_t>{kSubqueryData});
  cluster.sim().set_deliver_hook(nullptr);
  reset_wire_reject_counters();
}

// ---- enum bytes outside their enum ---------------------------------------
// Every enum byte is range-checked where it is decoded: a byte past the
// enum's last value is a codec reject, never run as some other op or mode.

TEST(CodecTruncation, SpecEnumBytesOutsideTheirEnumAreRejected) {
  auto set_wire = [](std::uint8_t op, std::uint8_t purpose) {
    SetSpec spec;
    spec.participants = {0, 1};
    spec.op = static_cast<SetOp>(op);
    spec.purpose = static_cast<SetPurpose>(purpose);
    net::Writer w;
    spec.encode(w);
    return std::move(w).take();
  };
  auto decode_set = [](const net::Bytes& wire) {
    net::Reader r(wire);
    return SetSpec::decode(r);
  };
  EXPECT_NO_THROW(decode_set(set_wire(1, 1)));
  EXPECT_THROW(decode_set(set_wire(2, 0)), net::CodecError);  // op
  EXPECT_THROW(decode_set(set_wire(0, 2)), net::CodecError);  // retired purpose

  for (bool transform : {true, false}) {
    auto cmp_wire = [&](std::uint8_t op) {
      CmpSpec spec;
      spec.participants = {0, 1};
      spec.op = static_cast<CmpOpKind>(op);
      net::Writer w;
      spec.encode(w, transform);
      return std::move(w).take();
    };
    auto decode_cmp = [&](const net::Bytes& wire) {
      net::Reader r(wire);
      return CmpSpec::decode(r, transform);
    };
    EXPECT_NO_THROW(decode_cmp(cmp_wire(3)));
    EXPECT_THROW(decode_cmp(cmp_wire(4)), net::CodecError);
  }
}

// A cluster holding the paper's Table 1 records, with every delivered
// message type counted per destination.
struct EnumBytes : ::testing::Test {
  EnumBytes()
      : cluster(Cluster::Options{logm::paper_schema(), 4, 1,
                                 logm::paper_partition(), /*seed=*/42,
                                 /*auditor_users=*/true}) {
    for (const auto& rec : logm::paper_table1_records()) {
      cluster.user(0).log_record(cluster.sim(), rec.attrs,
                                 [](std::optional<logm::Glsn>) {});
    }
    cluster.run();
    cluster.sim().set_deliver_hook([this](const net::Message& m) {
      delivered.push_back(m);
    });
  }
  ~EnumBytes() override {
    cluster.sim().set_deliver_hook(nullptr);
    reset_wire_reject_counters();
  }

  // Sends one frame, drains the simulator, and returns the codec rejects
  // it caused; `delivered` then holds every message that followed it.
  std::uint64_t send(net::NodeId src, net::NodeId dst, MsgType type,
                     net::Bytes payload) {
    reset_wire_reject_counters();
    cluster.sim().send(src, dst, type, std::move(payload));
    delivered.clear();
    cluster.run();
    return wire_reject_counters().codec_rejects;
  }
  std::size_t count(MsgType type) const {
    return static_cast<std::size_t>(
        std::count_if(delivered.begin(), delivered.end(),
                      [&](const net::Message& m) { return m.type == type; }));
  }
  net::NodeId node(std::size_t i) const {
    return cluster.config()->dla_nodes[i];
  }

  Cluster cluster;
  std::vector<net::Message> delivered;
};

// An aggregate whose op byte is 9 is not answered, and its request id stays
// fresh: the same id with op 1 (SUM) is answered over all five records.
TEST_F(EnumBytes, AggregateQueryWithUnknownOpIsNotAnswered) {
  auto query = [&](std::uint8_t op) {
    net::Writer w;
    w.u64(900);  // reqid
    cluster.user(0).ticket().encode(w);
    w.str("Time > 0");
    w.u8(op);
    w.str("C2");
    return std::move(w).take();
  };
  const net::NodeId user = cluster.user(0).id();
  EXPECT_EQ(send(user, node(0), kAggregateQuery, query(9)), 1u);
  EXPECT_EQ(count(kAggregateResult), 0u);
  EXPECT_EQ(send(user, node(0), kAggregateQuery, query(1)), 0u);
  ASSERT_EQ(count(kAggregateResult), 1u);
  for (const net::Message& m : delivered) {
    if (m.type != kAggregateResult) continue;
    net::Reader r(m.payload);
    EXPECT_EQ(r.u64(), 900u);
    EXPECT_TRUE(r.boolean());  // ok
    r.str();                   // error
    r.f64();                   // value
    EXPECT_EQ(r.u64(), 5u);    // count
    r.expect_end();
  }
  EXPECT_EQ(cluster.dla(0).replay_drops(), 0u);
}

// A kSetStart with op 7 and the retired purpose 2 starts no ring.
TEST_F(EnumBytes, SetStartWithUnknownOpAndPurposeStartsNoRing) {
  SetSpec spec;
  spec.session = 51;
  spec.op = static_cast<SetOp>(7);
  spec.purpose = static_cast<SetPurpose>(2);
  spec.participants = {node(0), node(1)};
  spec.collector = node(0);
  spec.observers = {node(0)};
  bool got_result = false;
  cluster.dla(0).on_set_result = [&](SessionId, std::vector<bn::BigUInt>) {
    got_result = true;
  };
  for (net::NodeId p : spec.participants) {
    net::Writer w;
    spec.encode(w);
    EXPECT_EQ(send(node(0), p, kSetStart, std::move(w).take()), 1u);
    EXPECT_EQ(count(kSetRing) + count(kSetFull), 0u);
  }
  EXPECT_FALSE(got_result);
  EXPECT_EQ(cluster.dla(0).session_residue(), 0u);
  EXPECT_EQ(cluster.dla(1).session_residue(), 0u);
}

// kCmpResult's op byte is checked before the session's result guard, so
// the genuine result still arrives.
TEST_F(EnumBytes, CmpResultWithUnknownOpSpendsNoGuard) {
  std::vector<CmpOpKind> ops;
  cluster.dla(0).on_cmp_result = [&](SessionId, CmpOpKind op, std::uint32_t) {
    ops.push_back(op);
  };
  auto result = [](std::uint8_t op) {
    net::Writer w;
    w.u64(61);  // session
    w.u8(op);
    w.u32(1);  // outcome
    return std::move(w).take();
  };
  const net::NodeId ttp = cluster.config()->ttp;
  EXPECT_EQ(send(ttp, node(0), kCmpResult, result(4)), 1u);
  EXPECT_TRUE(ops.empty());
  EXPECT_EQ(send(ttp, node(0), kCmpResult, result(1)), 0u);
  EXPECT_EQ(ops, std::vector<CmpOpKind>{CmpOpKind::Max});
}

// kJoinExec's predicate op byte is checked before the rid is spent: no
// batch reaches the TTP until a frame with a known op arrives.
TEST_F(EnumBytes, JoinExecWithUnknownCmpOpSendsNoBatch) {
  auto join = [&](std::uint8_t op) {
    net::Writer w;
    w.u64(1);   // qid
    w.u64(71);  // rid
    w.u8(0);    // side
    w.str("C1");
    w.u8(op);
    w.str("C2");
    w.u8(0);  // order-preserving transform
    w.big(bn::BigUInt(3));
    w.big(bn::BigUInt(5));
    w.u32(node(0));  // result owner
    return std::move(w).take();
  };
  EXPECT_EQ(send(node(1), node(0), kJoinExec, join(6)), 1u);
  EXPECT_EQ(count(kCmpBatch), 0u);
  EXPECT_EQ(send(node(1), node(0), kJoinExec, join(0)), 0u);
  EXPECT_EQ(count(kCmpBatch), 1u);
  EXPECT_EQ(cluster.dla(0).replay_drops(), 0u);
}

// The TTP refuses a kCmpBatch whose op byte is past CmpOp::Ne before it
// holds any batch state.
TEST_F(EnumBytes, CmpBatchWithUnknownCmpOpLeavesNoBatch) {
  net::Writer w;
  w.u64(81);  // rid
  w.u64(1);   // qid
  w.u8(0);    // side
  w.u8(6);    // op
  w.u32(node(0));  // result owner
  w.u32(node(1));  // gateway
  w.vec(std::vector<CmpBatchEntry>{},
        [](net::Writer& out, const CmpBatchEntry& e) {
          out.u64(e.glsn);
          out.big(e.w);
        });
  EXPECT_EQ(send(node(0), cluster.config()->ttp, kCmpBatch,
                 std::move(w).take()),
            1u);
  EXPECT_EQ(cluster.ttp().session_residue(), 0u);
}

// An owner answers no kAggregateExec whose op byte is past AggOp::Avg.
TEST_F(EnumBytes, AggregateExecWithUnknownOpIsNotAnswered) {
  auto exec = [&](std::uint8_t op) {
    net::Writer w;
    w.u64(1);  // qid
    w.u8(op);
    w.str("C2");
    w.vec(std::vector<logm::Glsn>{},
          [](net::Writer& out, logm::Glsn g) { out.u64(g); });
    return std::move(w).take();
  };
  EXPECT_EQ(send(node(1), node(0), kAggregateExec, exec(9)), 1u);
  EXPECT_EQ(count(kAggregateValue), 0u);
  EXPECT_EQ(send(node(1), node(0), kAggregateExec, exec(1)), 0u);
  EXPECT_EQ(count(kAggregateValue), 1u);
}

}  // namespace
}  // namespace dla::audit
