#include "audit/ttp_node.hpp"

#include <algorithm>
#include <map>

#include "audit/metrics.hpp"

namespace dla::audit {

namespace {

bool compare_w(const bn::BigUInt& lhs, CmpOp op, const bn::BigUInt& rhs) {
  switch (op) {
    case CmpOp::Lt: return lhs < rhs;
    case CmpOp::Le: return lhs <= rhs;
    case CmpOp::Gt: return lhs > rhs;
    case CmpOp::Ge: return lhs >= rhs;
    case CmpOp::Eq: return lhs == rhs;
    case CmpOp::Ne: return lhs != rhs;
  }
  return false;
}

}  // namespace

TtpNode::TtpNode(std::string name)
    : name_(std::move(name)), rng_("ttp/" + name_) {}

void TtpNode::configure(ConfigPtr cfg) { cfg_ = std::move(cfg); }

void TtpNode::enable_ledger(const std::string& domain,
                            std::vector<net::NodeId> peers,
                            Ledger::Options opts) {
  // The TTP certifies under a pseudonym of its own; the identity key is
  // derived from the node's seeded rng so runs stay reproducible.
  ledger_peer_.emplace(crypto::RsaKeyPair::generate(rng_, 256), opts);
  ledger_peer_->bootstrap(domain, std::move(peers));
}

void TtpNode::on_message(net::Transport& sim, const net::Message& msg) {
  try {
    switch (msg.type) {
      case kCmpSpec: return handle_cmp_spec(sim, msg);
      case kCmpValue: return handle_cmp_value(sim, msg);
      case kCmpBatch: return handle_cmp_batch(sim, msg);
      case kScalarInit: return handle_scalar_init(sim, msg);
      case kLedgerAppend:
        if (ledger_peer_) ledger_peer_->handle_append(sim, id(), msg);
        return;
      case kLedgerTailsRequest:
        if (ledger_peer_) ledger_peer_->handle_tails_request(sim, id(), msg);
        return;
      // The blind TTP must stay blind: it participates in exactly the four
      // comparison/commodity messages above (plus the content-public ledger
      // frames) and must ignore (never decode) everything else by
      // construction.
      // DLA-LINT-ALLOW(msgtype-switch): blind TTP ignores all non-TTP traffic
      default:
        break;
    }
  } catch (const net::CodecError&) {
    // A malformed comparison frame must not take the (shared) TTP down.
    ++detail::wire_reject_counters_mut().codec_rejects;
  }
}

void TtpNode::handle_cmp_spec(net::Transport& sim, const net::Message& msg) {
  net::Reader r(msg.payload);
  CmpSpec spec = CmpSpec::decode(r, /*include_transform=*/false);
  r.expect_end();
  if (cmp_served_guard_.contains(spec.session)) {
    ++replay_drops_;
    return;
  }
  CmpState& state = cmp_[spec.session];
  state.spec = std::move(spec);
  state.have_spec = true;
  maybe_finish(sim, state.spec.session);
}

void TtpNode::handle_cmp_value(net::Transport& sim, const net::Message& msg) {
  net::Reader r(msg.payload);
  SessionId session = r.u64();
  std::uint32_t index = r.u32();
  bn::BigUInt w = r.big();
  r.expect_end();
  if (cmp_served_guard_.contains(session)) {
    ++replay_drops_;
    return;
  }
  // A value counts only from the participant at its index. Once the spec
  // is known that is checked here; earlier arrivals wait for maybe_finish.
  CmpState& state = cmp_[session];
  if (state.have_spec &&
      !from_participant(state.spec.participants, index, msg.src)) {
    ++detail::wire_reject_counters_mut().codec_rejects;
    return;
  }
  state.values[{index, msg.src}] = std::move(w);
  maybe_finish(sim, session);
}

void TtpNode::maybe_finish(net::Transport& sim, SessionId session) {
  auto it = cmp_.find(session);
  if (it == cmp_.end()) return;
  CmpState& state = it->second;
  if (!state.have_spec) return;
  const CmpSpec& spec = state.spec;
  const std::size_t refused = std::erase_if(state.values, [&](const auto& v) {
    return !from_participant(spec.participants, v.first.first, v.first.second);
  });
  detail::wire_reject_counters_mut().codec_rejects += refused;
  if (state.values.size() < spec.participants.size()) return;
  ++sessions_served_;

  if (spec.op == CmpOpKind::Rank) {
    // Private ranks: each participant learns only its own position.
    for (const auto& [key, w] : state.values) {
      std::uint32_t rank = 0;
      for (const auto& [other, ow] : state.values) {
        if (other != key && ow < w) ++rank;
      }
      net::Writer out;
      out.u64(session);
      out.u32(rank);
      sim.send(id(), key.second, kRankResult, std::move(out).take());
    }
    cmp_.erase(it);
    cmp_served_guard_.insert(session);
    return;
  }

  std::uint32_t outcome = 0;
  switch (spec.op) {
    case CmpOpKind::Equality: {
      bool all_equal = true;
      const bn::BigUInt& first = state.values.begin()->second;
      for (const auto& [key, w] : state.values) {
        if (w != first) all_equal = false;
      }
      outcome = all_equal ? 1 : 0;
      break;
    }
    case CmpOpKind::Max:
    case CmpOpKind::Min: {
      auto best = state.values.begin();
      for (auto v = state.values.begin(); v != state.values.end(); ++v) {
        bool better = spec.op == CmpOpKind::Max ? v->second > best->second
                                                : v->second < best->second;
        if (better) best = v;
      }
      outcome = best->first.first;
      break;
    }
    case CmpOpKind::Rank:
      break;  // handled above
  }
  for (net::NodeId obs : spec.observers) {
    net::Writer out;
    out.u64(session);
    out.u8(static_cast<std::uint8_t>(spec.op));
    out.u32(outcome);
    sim.send(id(), obs, kCmpResult, std::move(out).take());
  }
  cmp_.erase(it);
  cmp_served_guard_.insert(session);
}

void TtpNode::handle_scalar_init(net::Transport& sim,
                                 const net::Message& msg) {
  net::Reader r(msg.payload);
  SessionId session = r.u64();
  net::NodeId alice = r.u32();
  net::NodeId bob = r.u32();
  std::uint32_t length = r.u32();
  std::vector<net::NodeId> observers = decode_node_ids(r);
  r.expect_end();
  // A duplicated init must not deal fresh randomness: if the parties mixed
  // the two dealings (reordering can interleave them), ra + rb would no
  // longer equal Ra.Rb and the product would be silently wrong. Marked only
  // once the frame decoded, so a truncated copy cannot spend the session.
  if (scalar_init_guard_.check_and_mark(session)) {
    ++replay_drops_;
    return;
  }

  const bn::BigUInt& p = cfg_->shamir_prime;
  std::vector<bn::BigUInt> ra_vec(length), rb_vec(length);
  bn::BigUInt dot;
  for (std::uint32_t i = 0; i < length; ++i) {
    ra_vec[i] = bn::BigUInt::random_below(rng_, p);
    rb_vec[i] = bn::BigUInt::random_below(rng_, p);
    dot = (dot + bn::BigUInt::mulmod(ra_vec[i], rb_vec[i], p)) % p;
  }
  bn::BigUInt ra = bn::BigUInt::random_below(rng_, p);
  bn::BigUInt rb = (dot + p - ra) % p;  // ra + rb = Ra.Rb (mod p)
  ++sessions_served_;

  net::Writer to_alice;
  to_alice.u64(session);
  to_alice.boolean(true);  // is_alice
  to_alice.u32(bob);
  encode_node_ids(to_alice, observers);
  encode_elements(to_alice, ra_vec);
  to_alice.big(ra);
  sim.send(id(), alice, kScalarRandomness, std::move(to_alice).take());

  net::Writer to_bob;
  to_bob.u64(session);
  to_bob.boolean(false);
  to_bob.u32(alice);
  encode_node_ids(to_bob, observers);
  encode_elements(to_bob, rb_vec);
  to_bob.big(rb);
  sim.send(id(), bob, kScalarRandomness, std::move(to_bob).take());
}

void TtpNode::handle_cmp_batch(net::Transport& sim, const net::Message& msg) {
  net::Reader r(msg.payload);
  std::uint64_t rid = r.u64();
  std::uint64_t qid = r.u64();
  if (batch_served_guard_.contains(rid)) {
    ++replay_drops_;
    return;
  }
  std::uint8_t side = r.u8();
  if (side > 1) throw net::CodecError("kCmpBatch side out of range");
  const CmpOp op = enum_byte(r.u8(), CmpOp::Ne);
  net::NodeId result_owner = r.u32();
  net::NodeId gateway = r.u32();
  auto entries = r.vec<CmpBatchEntry>([](net::Reader& in) {
    CmpBatchEntry e;
    e.glsn = in.u64();
    e.w = in.big();
    return e;
  });
  r.expect_end();

  BatchState& batch = batches_[rid];
  batch.qid = qid;
  batch.op = op;
  batch.result_owner = result_owner;
  batch.gateway = gateway;
  batch.sides[side].entries = std::move(entries);
  batch.sides[side].present = true;
  if (!batch.sides[0].present || !batch.sides[1].present) return;
  ++sessions_served_;

  // Join the two sides on glsn and evaluate lhs op rhs on the transformed
  // values; glsns present on only one side cannot satisfy the predicate.
  std::map<logm::Glsn, const bn::BigUInt*> rhs_by_glsn;
  for (const auto& e : batch.sides[1].entries) {
    rhs_by_glsn[e.glsn] = &e.w;
  }
  std::vector<logm::Glsn> satisfying;
  for (const auto& e : batch.sides[0].entries) {
    auto it = rhs_by_glsn.find(e.glsn);
    if (it == rhs_by_glsn.end()) continue;
    if (compare_w(e.w, batch.op, *it->second)) satisfying.push_back(e.glsn);
  }
  std::sort(satisfying.begin(), satisfying.end());

  net::Writer out;
  out.u64(rid);
  out.u64(batch.qid);
  out.u32(batch.gateway);
  out.vec(satisfying, [](net::Writer& w, logm::Glsn g) { w.u64(g); });
  sim.send(id(), batch.result_owner, kCmpBatchResult, std::move(out).take());
  batches_.erase(rid);
  batch_served_guard_.insert(rid);
}

}  // namespace dla::audit
