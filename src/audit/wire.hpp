// Wire protocol between DLA cluster actors.
//
// Message type ids, payload structs and their codecs for every distributed
// protocol in the system: glsn sequencing, fragment logging, the secure set
// ring protocols (Figure 4), secure sum (Section 3.5), blind-TTP comparisons
// (Sections 3.2-3.3), the integrity-check circulation (Section 4.1), the
// confidential query pipeline (Figure 3), and the evidence-chain membership
// handshake (Figures 6-7).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "audit/ticket.hpp"
#include "bignum/biguint.hpp"
#include "logm/record.hpp"
#include "net/bytes.hpp"
#include "net/transport.hpp"

namespace dla::audit {

using SessionId = std::uint64_t;

// ----------------------------------------------------------- message ids --
enum MsgType : std::uint32_t {
  // glsn sequencing (majority agreement)
  kGlsnRequest = 0x10,   // user -> gateway {reqid, ticket}
  kGlsnForward = 0x11,   // gateway -> leader {gid, gateway}
  kGlsnPropose = 0x12,   // leader -> replicas {proposal_id, glsn}
  kGlsnVote = 0x13,      // replica -> leader {proposal_id, accept, promised_hint}
  // 0x14: retired id, never reassigned.
  kGlsnReply = 0x15,     // leader -> gateway -> user {reqid, glsn}

  // fragment logging; the accumulator deposit rides every upload
  kLogFragment = 0x20,   // user -> P_i {ticket, is_replica, fragment,
                         //              copy_seq, deposit}
  kLogAck = 0x21,        // P_i -> user {glsn, ok, copy_seq}
  // 0x22: retired id, never reassigned.
  kFragmentRequest = 0x23,  // user -> P_i {reqid, ticket, glsn}
  kFragmentReply = 0x24,    // P_i -> user {reqid, glsn, ok, fragment}
  kFragmentDelete = 0x25,   // user -> P_i {reqid, ticket, glsn}
  kDeleteReply = 0x26,      // P_i -> user {reqid, glsn, ok}
  // 0x27: retired id, never reassigned.

  // secure set protocols (ring of commutative encryptions). Ring traffic is
  // a stream of fixed-size chunks (SetChunkHeader) so each hop pipelines
  // re-encryption of chunk k against transmission of chunk k+1; see
  // docs/PROTOCOLS.md "Chunked, pipelined ring-pass".
  kSetStart = 0x40,      // initiator -> participants {spec}
  kSetRing = 0x41,       // P -> next {spec, chunk header, hops, elements}
  kSetFull = 0x42,       // P -> collector {spec, chunk header, elements}
  kSetDecrypt = 0x43,    // collector/P -> P {spec, chunk header, hops, elements}
  kSetResult = 0x44,     // last P -> observers {session, elements}

  // secure sum (Shamir)
  kSumStart = 0x50,      // initiator -> participants {spec}
  kSumShare = 0x51,      // P_i -> P_j {session, from_index, share y}
  kSumEval = 0x52,       // P_j -> collector {session, x, F(x)}
  kSumResult = 0x53,     // collector -> observers {session, value}

  // blind-TTP comparisons
  kCmpParams = 0x60,     // initiator -> participants {spec incl a, b}
  kCmpSpec = 0x61,       // initiator -> TTP {spec WITHOUT a, b}
  kCmpValue = 0x62,      // P_i -> TTP {session, index, W}
  kCmpResult = 0x63,     // TTP -> observers {session, op, outcome}
  kRankResult = 0x64,    // TTP -> P_i {session, rank}
  kCmpBatch = 0x65,      // P -> TTP {session, side, entries (glsn, W)}
  kCmpBatchResult = 0x66,// TTP -> owner {session, glsns}

  // distributed integrity checking
  kIntegrityPass = 0x70, // P -> next {session, glsn, hops, value, initiator}

  // confidential audit queries (Figure 3)
  kAuditQuery = 0x80,    // user -> gateway {qid, ticket, criterion}
  kAuditResult = 0x81,   // gateway -> user {qid, ok, error, glsns}
  // 0x82: retired id, never reassigned.
  kSubqueryDone = 0x83,  // owner -> gateway {qid, rid, result_size}
  // 0x84: retired id, never reassigned.
  kSubqueryData = 0x85,  // owner -> gateway {qid, rid, glsns} (final set)
  kJoinExec = 0x86,      // gateway -> both attr owners {join task parameters}
  kCombineExec = 0x87,   // gateway -> owners {inputs, exprs, reply or ring}
  // 0x88: retired id, never reassigned.
  kAggregateQuery = 0x89,  // user -> gateway {qid, ticket, criterion, op, attr}
  kAggregateExec = 0x8A,   // gateway -> attr owner {qid, op, attr, glsns}
  kAggregateValue = 0x8B,  // owner -> gateway {qid, ok, value}
  kAggregateResult = 0x8C, // gateway -> user {qid, ok, error, value, count}

  // failure detection
  kHeartbeat = 0xD0,  // P_i -> peers {index}

  // secure scalar product (Du-Atallah, commodity-server model)
  kScalarInit = 0xC0,        // initiator -> TTP {session, alice, bob, len}
  kScalarRandomness = 0xC1,  // TTP -> party {session, role, R, r, peer, obs}
  kScalarMaskedA = 0xC2,     // Alice -> Bob {session, A + Ra}
  kScalarReply = 0xC3,       // Bob -> Alice {session, t, B + Rb}
  kScalarResult = 0xC4,      // Alice -> observers {session, value}

  // distributed key generation (Feldman VSS)
  kDkgStart = 0xB0,      // initiator -> participants {session, k}
  kDkgCommit = 0xB1,     // dealer -> all {session, dealer, commitments}
  kDkgShare = 0xB2,      // dealer -> one {session, dealer, share}

  // threshold report certification
  kSignRequest = 0xA0,   // gateway -> signer {sid, message}
  kSignNonce = 0xA1,     // signer -> gateway {sid, index, R_i}
  kSignChallenge = 0xA2, // gateway -> signer {sid, c, lambda_i}
  kSignShare = 0xA3,     // signer -> gateway {sid, s_i}

  // evidence-chain membership (Figures 6-7)
  kTokenRequest = 0x90,  // P_x -> CA {reqid, blinded}
  kTokenReply = 0x91,    // CA -> P_x {reqid, blind signature}
  kPolicyProposal = 0x92,   // P_y -> P_x {session, terms}
  kServiceCommitment = 0x93,// P_x -> P_y {session, services, token, pub}
  kEvidenceGrant = 0x94,    // P_y -> P_x {session, piece, chain}

  // tamper-evident record ledger (docs/LEDGER.md)
  kLedgerAppend = 0x95,       // peer -> peers {record}
  kLedgerTailsRequest = 0x96, // auditor -> peer {reqid}
  kLedgerTailsReply = 0x97,   // peer -> auditor {reqid, tails, records, settled}
};

// --------------------------------------------------- set protocol payload --
enum class SetOp : std::uint8_t { Intersect = 0, Union = 1 };

// How a participant sources its private input set for the session.
enum class SetPurpose : std::uint8_t {
  Staged = 0,      // driver staged elements via stage_set_input()
  AclEntries = 1,  // node contributes its canonical ACL entries (4.1)
  // 2: retired value, never reassigned.
};

struct SetSpec {
  SessionId session = 0;
  SetOp op = SetOp::Intersect;
  SetPurpose purpose = SetPurpose::Staged;
  std::vector<net::NodeId> participants;  // ring order
  net::NodeId collector = 0;
  std::vector<net::NodeId> observers;

  void encode(net::Writer& w) const;
  static SetSpec decode(net::Reader& r);
};

// Which circulation of a session a chunk belongs to. A decrypt-pass chunk
// replayed into the encrypt ring (or vice versa) must be rejected, not
// re-encrypted — the ring_id makes the two streams distinguishable on the
// wire instead of relying on the message type alone.
inline constexpr std::uint32_t kRingEncrypt = 0;
inline constexpr std::uint32_t kRingDecrypt = 1;

// Per-chunk header of the windowed ring stream. `origin` is the ring
// position of the participant whose set this chunk belongs to (always 0 on
// the decrypt pass, which circulates the single combined set); `chunk_seq`
// in [0, n_chunks) orders the stream for reassembly at the collector and at
// the terminal decrypt hop. Chunks may arrive out of order and duplicated;
// receivers dedup by (session, ring_id, origin, chunk_seq) and reject any
// header whose fields are out of range for the accompanying SetSpec.
struct SetChunkHeader {
  std::uint32_t origin = 0;
  std::uint32_t ring_id = kRingEncrypt;
  std::uint32_t chunk_seq = 0;
  std::uint32_t n_chunks = 1;

  void encode(net::Writer& w) const;
  static SetChunkHeader decode(net::Reader& r);
};

// ---------------------------------------------------------- sum payload --
struct SumSpec {
  SessionId session = 0;
  std::vector<net::NodeId> participants;
  std::uint32_t threshold_k = 0;
  net::NodeId collector = 0;
  std::vector<net::NodeId> observers;
  std::vector<bn::BigUInt> weights;  // empty = unweighted

  // Threshold in [1, n] and either no weights or one per participant.
  // start_sum requires it; decode refuses a spec without it (CodecError).
  bool well_formed() const;

  void encode(net::Writer& w) const;
  static SumSpec decode(net::Reader& r);
};

// ------------------------------------------------- comparison payloads --
enum class CmpOpKind : std::uint8_t { Equality = 0, Max = 1, Min = 2, Rank = 3 };

struct CmpSpec {
  SessionId session = 0;
  CmpOpKind op = CmpOpKind::Equality;
  std::vector<net::NodeId> participants;
  net::NodeId ttp = 0;
  std::vector<net::NodeId> observers;
  // Shared affine transform, NOT sent to the TTP. For Equality the transform
  // is taken mod p (value fully hidden); for Max/Min/Rank it must not wrap
  // so that order is preserved (order is the allowed secondary disclosure).
  bn::BigUInt a;
  bn::BigUInt b;

  void encode(net::Writer& w, bool include_transform) const;
  static CmpSpec decode(net::Reader& r, bool include_transform);
};

// Batched per-glsn comparison for cross-node attribute joins.
struct CmpBatchEntry {
  logm::Glsn glsn = 0;
  bn::BigUInt w;
};

// ------------------------------------------------- aggregate queries --
// Confidential statistics over a criterion's matching records (abstract:
// "number of transactions, total of volumes ... without having to access
// the full log data"). Count is taken from the final glsn set at the
// gateway; value aggregates are computed by the attribute's owner node,
// which returns ONLY the aggregate — per-record values never leave it.
enum class AggOp : std::uint8_t { Count = 0, Sum = 1, Max = 2, Min = 3, Avg = 4 };

std::string_view to_string(AggOp op);

// ------------------------------------------------------- query tasks --
// How an owner answers a query task (the `reply` byte of a ring-less
// kCombineExec): keep the set for a later combine and report its size
// (kSubqueryDone), report only the size (secret counting, [7]), or send the
// set itself as the query's final result (kSubqueryData).
enum class TaskReply : std::uint8_t { Stage = 0, Count = 1, Set = 2 };

// --------------------------------------------------------- glsn elements --
// Set elements that embed a recoverable glsn: (glsn+1) << 160 | T, where the
// constant tail T is the low 160 bits of SHA-256(""). The glsn is recovered
// from the decrypted plaintext by shifting; the +1 keeps elements nonzero
// for glsn 0. Decoding accepts only the tail T and a high part in
// [1, 2^64 - 1], so a decrypted value that no encoder produced (a wrong key
// at one hop, a tampered chunk) decodes to nullopt instead of a glsn.
bn::BigUInt encode_glsn_element(logm::Glsn glsn);
std::optional<logm::Glsn> decode_glsn_element(const bn::BigUInt& element);

// -------------------------------------------------- certified reports --
// The message a threshold-certified audit report signs: binds the user's
// request id and the exact glsn set. Both the gateway (signing) and the
// user (verifying) derive it identically.
std::string report_message(std::uint64_t user_reqid,
                           const std::vector<logm::Glsn>& glsns);

// ------------------------------------------------------- codec helpers --
void encode_elements(net::Writer& w, const std::vector<bn::BigUInt>& elements);
std::vector<bn::BigUInt> decode_elements(net::Reader& r);

void encode_node_ids(net::Writer& w, const std::vector<net::NodeId>& ids);
std::vector<net::NodeId> decode_node_ids(net::Reader& r);

// The enumerator a decoded byte names, `last` being the enum's highest
// value. A byte past it raises net::CodecError (a codec reject), so an
// unknown op or mode never runs as some other one.
template <typename Enum>
Enum enum_byte(std::uint8_t byte, Enum last) {
  if (byte > static_cast<std::uint8_t>(last)) {
    throw net::CodecError("enum byte out of range");
  }
  return static_cast<Enum>(byte);
}

// Whether `sender` is participants[index]: a per-index protocol value
// (kCmpValue, kSumShare) counts only from the participant at its index.
bool from_participant(const std::vector<net::NodeId>& participants,
                      std::uint32_t index, net::NodeId sender);
// The position of `node` in `participants` (its first listing), or nullopt
// when the spec does not list it: such a node takes no part in the session.
std::optional<std::uint32_t> position_of(
    const std::vector<net::NodeId>& participants, net::NodeId node);

}  // namespace dla::audit
