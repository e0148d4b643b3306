#include "audit/wire.hpp"

#include <algorithm>

#include "crypto/sha256.hpp"

namespace dla::audit {

void encode_elements(net::Writer& w, const std::vector<bn::BigUInt>& elements) {
  w.vec(elements, [](net::Writer& out, const bn::BigUInt& e) { out.big(e); });
}

std::vector<bn::BigUInt> decode_elements(net::Reader& r) {
  return r.vec<bn::BigUInt>([](net::Reader& in) { return in.big(); });
}

void encode_node_ids(net::Writer& w, const std::vector<net::NodeId>& ids) {
  w.vec(ids, [](net::Writer& out, net::NodeId id) { out.u32(id); });
}

std::vector<net::NodeId> decode_node_ids(net::Reader& r) {
  return r.vec<net::NodeId>([](net::Reader& in) { return in.u32(); });
}

bool from_participant(const std::vector<net::NodeId>& participants,
                      std::uint32_t index, net::NodeId sender) {
  return index < participants.size() && participants[index] == sender;
}

std::optional<std::uint32_t> position_of(
    const std::vector<net::NodeId>& participants, net::NodeId node) {
  const auto it = std::find(participants.begin(), participants.end(), node);
  if (it == participants.end()) return std::nullopt;
  return static_cast<std::uint32_t>(it - participants.begin());
}

void SetSpec::encode(net::Writer& w) const {
  w.u64(session);
  w.u8(static_cast<std::uint8_t>(op));
  w.u8(static_cast<std::uint8_t>(purpose));
  encode_node_ids(w, participants);
  w.u32(collector);
  encode_node_ids(w, observers);
}

SetSpec SetSpec::decode(net::Reader& r) {
  SetSpec s;
  s.session = r.u64();
  s.op = enum_byte(r.u8(), SetOp::Union);
  s.purpose = enum_byte(r.u8(), SetPurpose::AclEntries);
  s.participants = decode_node_ids(r);
  s.collector = r.u32();
  s.observers = decode_node_ids(r);
  return s;
}

void SetChunkHeader::encode(net::Writer& w) const {
  w.u32(origin);
  w.u32(ring_id);
  w.u32(chunk_seq);
  w.u32(n_chunks);
}

SetChunkHeader SetChunkHeader::decode(net::Reader& r) {
  SetChunkHeader h;
  h.origin = r.u32();
  h.ring_id = r.u32();
  h.chunk_seq = r.u32();
  h.n_chunks = r.u32();
  return h;
}

bool SumSpec::well_formed() const {
  return threshold_k >= 1 && threshold_k <= participants.size() &&
         (weights.empty() || weights.size() == participants.size());
}

void SumSpec::encode(net::Writer& w) const {
  w.u64(session);
  encode_node_ids(w, participants);
  w.u32(threshold_k);
  w.u32(collector);
  encode_node_ids(w, observers);
  encode_elements(w, weights);
}

SumSpec SumSpec::decode(net::Reader& r) {
  SumSpec s;
  s.session = r.u64();
  s.participants = decode_node_ids(r);
  s.threshold_k = r.u32();
  s.collector = r.u32();
  s.observers = decode_node_ids(r);
  s.weights = decode_elements(r);
  if (!s.well_formed())
    throw net::CodecError("SumSpec: bad threshold or weight count");
  return s;
}

void CmpSpec::encode(net::Writer& w, bool include_transform) const {
  w.u64(session);
  w.u8(static_cast<std::uint8_t>(op));
  encode_node_ids(w, participants);
  w.u32(ttp);
  encode_node_ids(w, observers);
  w.boolean(include_transform);
  if (include_transform) {
    w.big(a);
    w.big(b);
  }
}

CmpSpec CmpSpec::decode(net::Reader& r, bool include_transform) {
  CmpSpec s;
  s.session = r.u64();
  s.op = enum_byte(r.u8(), CmpOpKind::Rank);
  s.participants = decode_node_ids(r);
  s.ttp = r.u32();
  s.observers = decode_node_ids(r);
  bool has_transform = r.boolean();
  if (has_transform != include_transform)
    throw net::CodecError("CmpSpec: transform presence mismatch");
  if (has_transform) {
    s.a = r.big();
    s.b = r.big();
  }
  return s;
}

std::string report_message(std::uint64_t user_reqid,
                           const std::vector<logm::Glsn>& glsns) {
  // A domain tag, then the request id, the count and the glsns as
  // fixed-width integers, hashed in one update.
  net::Writer w;
  w.str("audit-report");
  w.u64(user_reqid);
  w.vec(glsns, [](net::Writer& out, logm::Glsn g) { out.u64(g); });
  crypto::Sha256 ctx;
  ctx.update(w.bytes());
  return crypto::to_hex(ctx.finalize());
}

std::string_view to_string(AggOp op) {
  switch (op) {
    case AggOp::Count: return "COUNT";
    case AggOp::Sum: return "SUM";
    case AggOp::Max: return "MAX";
    case AggOp::Min: return "MIN";
    case AggOp::Avg: return "AVG";
  }
  return "?";
}

namespace {

// The low 160 bits of every glsn element: SHA-256 of the empty string, whose
// last 20 bytes are its low 160 bits.
const bn::BigUInt& glsn_element_tail() {
  static const bn::BigUInt tail = [] {
    const crypto::Digest d = crypto::Sha256::hash(std::string_view{});
    return bn::BigUInt::from_bytes({d.end() - 20, d.end()});
  }();
  return tail;
}

}  // namespace

bn::BigUInt encode_glsn_element(logm::Glsn glsn) {
  return (bn::BigUInt(glsn + 1) << 160) + glsn_element_tail();
}

std::optional<logm::Glsn> decode_glsn_element(const bn::BigUInt& element) {
  const bn::BigUInt high = element >> 160;
  if (high.is_zero() || !high.fits_u64()) return std::nullopt;
  if (element - (high << 160) != glsn_element_tail()) return std::nullopt;
  return high.low_u64() - 1;
}

}  // namespace dla::audit
