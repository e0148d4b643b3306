// Chunked, pipelined secure-set ring-pass: differential equivalence against
// the legacy monolithic path (chunk size 0), malformed chunk-frame
// rejection, and stream-reassembly bookkeeping. The chunked ring must be
// bit-identical to monolithic for every chunk size, including degenerate
// ones (1 element per chunk; chunks larger than the whole set).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "audit/cluster.hpp"
#include "crypto/modexp_engine.hpp"
#include "crypto/pohlig_hellman.hpp"
#include "logm/workload.hpp"
#include "net/bytes.hpp"

namespace dla::audit {
namespace {

// Deterministic overlapping inputs: node i holds per_node items starting at
// i*per_node/2, so neighbours share half their elements.
std::vector<std::vector<std::string>> make_inputs(std::size_t nodes,
                                                  std::size_t per_node) {
  std::vector<std::vector<std::string>> out(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    for (std::size_t j = 0; j < per_node; ++j) {
      out[i].push_back("item" + std::to_string(i * (per_node / 2) + j));
    }
  }
  return out;
}

// Runs one full set protocol on a fresh cluster (fixed seed, so session
// keys — and therefore ciphertext order — are identical across runs) and
// returns the result delivered to the observer.
std::vector<bn::BigUInt> run_set(std::size_t chunk_size, SetOp op,
                                 std::size_t participants,
                                 std::size_t per_node) {
  Cluster::Options opts{logm::paper_schema(), 4, 1, logm::paper_partition(),
                        /*seed=*/42, /*auditor_users=*/true};
  opts.set_chunk_size = chunk_size;
  Cluster cluster(opts);
  const SessionId session = 9000 + chunk_size;
  auto inputs = make_inputs(participants, per_node);
  SetSpec spec;
  spec.session = session;
  spec.op = op;
  for (std::size_t i = 0; i < participants; ++i) {
    std::vector<bn::BigUInt> encoded;
    for (const auto& s : inputs[i]) {
      encoded.push_back(crypto::encode_element(cluster.config()->ph_domain, s));
    }
    cluster.dla(i).stage_set_input(session, std::move(encoded));
    spec.participants.push_back(cluster.config()->dla_nodes[i]);
  }
  spec.collector = cluster.config()->dla_nodes[0];
  spec.observers = {cluster.config()->dla_nodes[0]};

  std::optional<std::vector<bn::BigUInt>> result;
  cluster.dla(0).on_set_result = [&](SessionId s,
                                     std::vector<bn::BigUInt> elements) {
    EXPECT_EQ(s, session);
    EXPECT_FALSE(result.has_value()) << "observer saw two results";
    result = std::move(elements);
  };
  cluster.dla(0).start_set_protocol(cluster.sim(), spec);
  cluster.run();
  EXPECT_TRUE(result.has_value()) << "chunk_size=" << chunk_size;
  // Every transient map must be empty once the protocol drains — partial
  // chunk streams and decrypt progress included.
  for (std::size_t i = 0; i < cluster.dla_count(); ++i) {
    EXPECT_EQ(cluster.dla(i).session_residue(), 0u)
        << "node " << i << " chunk_size=" << chunk_size;
    EXPECT_EQ(cluster.dla(i).set_ring_rejects(), 0u) << "node " << i;
  }
  return result.value_or(std::vector<bn::BigUInt>{});
}

TEST(RingChunk, DifferentialBitIdenticalAcrossChunkSizes) {
  // 9 elements per node: chunk 1 = one element per frame, 3 and 7 leave a
  // ragged tail chunk, 1000 exceeds the whole set (single chunk), 0 = the
  // legacy monolithic wire path.
  for (SetOp op : {SetOp::Intersect, SetOp::Union}) {
    std::vector<bn::BigUInt> baseline = run_set(0, op, 3, 9);
    if (op == SetOp::Intersect) {
      EXPECT_FALSE(baseline.empty());  // neighbours overlap by construction
    }
    for (std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                              std::size_t{64}, std::size_t{1000}}) {
      std::vector<bn::BigUInt> chunked = run_set(chunk, op, 3, 9);
      EXPECT_EQ(baseline, chunked)
          << "op=" << static_cast<int>(op) << " chunk=" << chunk;
    }
  }
}

TEST(RingChunk, TwoPartyAndWideRingsMatchMonolithic) {
  EXPECT_EQ(run_set(0, SetOp::Intersect, 2, 5),
            run_set(2, SetOp::Intersect, 2, 5));
  EXPECT_EQ(run_set(0, SetOp::Union, 4, 6), run_set(2, SetOp::Union, 4, 6));
}

TEST(RingChunk, EmptyInputStillCirculatesAndResolves) {
  // per_node=0: every origin streams one empty chunk; the combine sees
  // empty full sets and the (empty) decrypt pass still retires every key.
  EXPECT_TRUE(run_set(3, SetOp::Intersect, 3, 0).empty());
  EXPECT_TRUE(run_set(3, SetOp::Union, 3, 0).empty());
}

// ------------------------------------------ malformed chunk frames -------

struct RingChunkFrames : ::testing::Test {
  RingChunkFrames()
      : cluster(Cluster::Options{logm::paper_schema(), 4, 1,
                                 logm::paper_partition(), /*seed=*/42,
                                 /*auditor_users=*/true}) {}

  SetSpec make_spec(SessionId session) {
    SetSpec spec;
    spec.session = session;
    spec.op = SetOp::Intersect;
    spec.participants = {cluster.config()->dla_nodes[0],
                         cluster.config()->dla_nodes[1],
                         cluster.config()->dla_nodes[2]};
    spec.collector = cluster.config()->dla_nodes[0];
    spec.observers = {cluster.config()->dla_nodes[0]};
    return spec;
  }

  std::vector<bn::BigUInt> one_element() {
    return {crypto::encode_element(cluster.config()->ph_domain, "x")};
  }

  Cluster cluster;
};

TEST_F(RingChunkFrames, OutOfRangeOriginInFullFrameIsRejected) {
  // Regression: `full_sets[origin]` was indexed by an unvalidated wire
  // field; an origin >= participants.size() counted toward the
  // streams-landed total and could trigger a bogus combine.
  SetSpec spec = make_spec(31);
  net::Writer w;
  spec.encode(w);
  SetChunkHeader{/*origin=*/7, kRingEncrypt, 0, 1}.encode(w);
  encode_elements(w, one_element());
  cluster.sim().send(cluster.config()->dla_nodes[1],
                     cluster.config()->dla_nodes[0], kSetFull,
                     std::move(w).take());
  cluster.run();
  EXPECT_EQ(cluster.dla(0).set_ring_rejects(), 1u);
  EXPECT_EQ(cluster.dla(0).session_residue(), 0u);  // no collect entry leaked
}

TEST_F(RingChunkFrames, OutOfRangeHopsInDecryptFrameIsRejected) {
  // Regression: the decrypt handler forwarded to participants[hops] with an
  // unvalidated hop count — hops >= participants.size() indexed out of
  // bounds (the old dla_node.cpp:721 defect).
  SetSpec spec = make_spec(32);
  net::Writer w;
  spec.encode(w);
  SetChunkHeader{0, kRingDecrypt, 0, 1}.encode(w);
  w.u32(static_cast<std::uint32_t>(spec.participants.size()) + 5);  // hops
  encode_elements(w, one_element());
  cluster.sim().send(cluster.config()->dla_nodes[0],
                     cluster.config()->dla_nodes[1], kSetDecrypt,
                     std::move(w).take());
  cluster.run();
  EXPECT_EQ(cluster.dla(1).set_ring_rejects(), 1u);
  EXPECT_EQ(cluster.dla(1).session_residue(), 0u);
}

TEST_F(RingChunkFrames, OutOfRangeHopsInRingFrameIsRejected) {
  SetSpec spec = make_spec(33);
  net::Writer w;
  spec.encode(w);
  SetChunkHeader{0, kRingEncrypt, 0, 1}.encode(w);
  w.u32(9);  // hops far past the 3-node ring
  encode_elements(w, one_element());
  cluster.sim().send(cluster.config()->dla_nodes[0],
                     cluster.config()->dla_nodes[1], kSetRing,
                     std::move(w).take());
  cluster.run();
  EXPECT_EQ(cluster.dla(1).set_ring_rejects(), 1u);
  EXPECT_EQ(cluster.dla(1).session_residue(), 0u);
}

// Elements outside [1, p-1] are not ciphertexts: PhKey throws on them, so
// each ring handler must refuse the frame before any session state exists.

TEST_F(RingChunkFrames, ZeroElementInRingFrameIsRejected) {
  SetSpec spec = make_spec(37);
  net::Writer w;
  spec.encode(w);
  SetChunkHeader{0, kRingEncrypt, 0, 1}.encode(w);
  w.u32(1);  // hops
  encode_elements(w, {bn::BigUInt{}});
  cluster.sim().send(cluster.config()->dla_nodes[0],
                     cluster.config()->dla_nodes[1], kSetRing,
                     std::move(w).take());
  EXPECT_NO_THROW(cluster.run());
  EXPECT_EQ(cluster.dla(1).set_ring_rejects(), 1u);
  EXPECT_EQ(cluster.dla(1).session_residue(), 0u);  // no session key minted
}

TEST_F(RingChunkFrames, ModulusElementInDecryptFrameIsRejected) {
  SetSpec spec = make_spec(38);
  spec.collector = cluster.config()->dla_nodes[3];  // keep P0's residue its own
  const net::NodeId p0 = spec.participants[0];
  auto send = [&](std::uint32_t type, std::uint32_t ring_id,
                  std::uint32_t hops, std::vector<bn::BigUInt> elements) {
    net::Writer w;
    spec.encode(w);
    SetChunkHeader{0, ring_id, 0, 1}.encode(w);
    w.u32(hops);
    encode_elements(w, elements);
    cluster.sim().send(spec.participants[2], p0, type, std::move(w).take());
    EXPECT_NO_THROW(cluster.run());
  };
  // A valid last ring hop gives P0 its session key.
  send(kSetRing, kRingEncrypt, 2, one_element());
  ASSERT_EQ(cluster.dla(0).set_ring_rejects(), 0u);
  send(kSetDecrypt, kRingDecrypt, 0, {cluster.config()->ph_domain.p});
  EXPECT_EQ(cluster.dla(0).set_ring_rejects(), 1u);
  // The refused frame left the chunk unseen: the real one still strips
  // P0's layer and retires its key.
  send(kSetDecrypt, kRingDecrypt, 0, one_element());
  EXPECT_EQ(cluster.dla(0).set_ring_rejects(), 1u);
  EXPECT_EQ(cluster.dla(0).session_residue(), 0u);
}

TEST_F(RingChunkFrames, OutOfGroupElementInFullFrameIsRejected) {
  SetSpec spec = make_spec(39);
  net::Writer w;
  spec.encode(w);
  SetChunkHeader{0, kRingEncrypt, 0, 1}.encode(w);
  encode_elements(w, {cluster.config()->ph_domain.p + bn::BigUInt(1)});
  cluster.sim().send(cluster.config()->dla_nodes[2],
                     cluster.config()->dla_nodes[0], kSetFull,
                     std::move(w).take());
  EXPECT_NO_THROW(cluster.run());
  EXPECT_EQ(cluster.dla(0).set_ring_rejects(), 1u);
  EXPECT_EQ(cluster.dla(0).session_residue(), 0u);  // no collect entry
}

TEST_F(RingChunkFrames, InvalidChunkShapeIsRejected) {
  SetSpec spec = make_spec(34);
  // n_chunks == 0 (invalid stream length)
  {
    net::Writer w;
    spec.encode(w);
    SetChunkHeader{0, kRingEncrypt, 0, 0}.encode(w);
    w.u32(1);
    encode_elements(w, one_element());
    cluster.sim().send(cluster.config()->dla_nodes[0],
                       cluster.config()->dla_nodes[1], kSetRing,
                       std::move(w).take());
  }
  // chunk_seq >= n_chunks
  {
    net::Writer w;
    spec.encode(w);
    SetChunkHeader{0, kRingEncrypt, 5, 2}.encode(w);
    w.u32(1);
    encode_elements(w, one_element());
    cluster.sim().send(cluster.config()->dla_nodes[0],
                       cluster.config()->dla_nodes[1], kSetRing,
                       std::move(w).take());
  }
  // wrong ring id for the message type
  {
    net::Writer w;
    spec.encode(w);
    SetChunkHeader{0, kRingDecrypt, 0, 1}.encode(w);
    w.u32(1);
    encode_elements(w, one_element());
    cluster.sim().send(cluster.config()->dla_nodes[0],
                       cluster.config()->dla_nodes[1], kSetRing,
                       std::move(w).take());
  }
  cluster.run();
  EXPECT_EQ(cluster.dla(1).set_ring_rejects(), 3u);
  EXPECT_EQ(cluster.dla(1).session_residue(), 0u);
}

TEST_F(RingChunkFrames, MismatchedStreamLengthIsRejected) {
  // Two kSetFull frames for the same origin disagreeing on n_chunks: the
  // second must be rejected, and the session must never combine.
  SetSpec spec = make_spec(35);
  auto send_full = [&](std::uint32_t seq, std::uint32_t n_chunks) {
    net::Writer w;
    spec.encode(w);
    SetChunkHeader{0, kRingEncrypt, seq, n_chunks}.encode(w);
    encode_elements(w, one_element());
    cluster.sim().send(cluster.config()->dla_nodes[1],
                       cluster.config()->dla_nodes[0], kSetFull,
                       std::move(w).take());
  };
  send_full(0, 3);
  send_full(1, 2);  // disagrees with the stream length announced first
  cluster.run();
  EXPECT_EQ(cluster.dla(0).set_ring_rejects(), 1u);
}

TEST_F(RingChunkFrames, DuplicateChunkIsDroppedAsReplay) {
  SetSpec spec = make_spec(36);
  const std::uint64_t drops_before = cluster.dla(0).replay_drops();
  auto send_full = [&] {
    net::Writer w;
    spec.encode(w);
    SetChunkHeader{0, kRingEncrypt, 0, 2}.encode(w);
    encode_elements(w, one_element());
    cluster.sim().send(cluster.config()->dla_nodes[1],
                       cluster.config()->dla_nodes[0], kSetFull,
                       std::move(w).take());
  };
  send_full();
  send_full();  // same (origin, seq) again
  cluster.run();
  EXPECT_EQ(cluster.dla(0).replay_drops(), drops_before + 1);
  EXPECT_EQ(cluster.dla(0).set_ring_rejects(), 0u);
}

// ------------------------------------------------ stream reassembly -----

// Collector side: P0 collects a union ring of P1 and P2, whose kSetFull
// frames the test sends itself. The decrypt pass P0 starts for the combine
// is captured on its way to P1 and dropped, so the combined set can be read
// off its frames.
struct CollectorStreams : RingChunkFrames {
  CollectorStreams() {
    const auto& nodes = cluster.config()->dla_nodes;
    spec.op = SetOp::Union;
    spec.participants = {nodes[1], nodes[2]};
    spec.collector = nodes[0];
    spec.observers = {nodes[0]};
    cluster.sim().set_drop_policy([this](const net::Message& m) {
      if (m.type != kSetDecrypt) return false;
      decrypt_frames.push_back(m);
      return true;
    });
  }

  // Chunk `seq` of origin `origin`'s stream: two elements no other chunk of
  // either stream holds.
  std::vector<bn::BigUInt> chunk(std::uint32_t origin, std::uint32_t seq) {
    std::vector<bn::BigUInt> out;
    for (std::uint32_t k = 0; k < 2; ++k) {
      out.push_back(crypto::encode_element(
          cluster.config()->ph_domain,
          "o" + std::to_string(origin) + "s" + std::to_string(seq) + "k" +
              std::to_string(k)));
    }
    return out;
  }

  void send_full(SessionId session, std::uint32_t origin, std::uint32_t seq,
                 std::uint32_t n_chunks) {
    spec.session = session;
    net::Writer w;
    spec.encode(w);
    SetChunkHeader{origin, kRingEncrypt, seq, n_chunks}.encode(w);
    encode_elements(w, chunk(origin, seq));
    cluster.sim().send(spec.participants[1], spec.collector, kSetFull,
                       std::move(w).take());
    cluster.run();
  }

  // The combined set of `session`: its decrypt frames' elements in seq
  // order (empty when the collector has not combined).
  std::vector<bn::BigUInt> combined(SessionId session) {
    std::map<std::uint32_t, std::vector<bn::BigUInt>> by_seq;
    for (const net::Message& m : decrypt_frames) {
      net::Reader r(m.payload);
      const SetSpec frame_spec = SetSpec::decode(r);
      const SetChunkHeader header = SetChunkHeader::decode(r);
      r.u32();  // hops
      std::vector<bn::BigUInt> elements = decode_elements(r);
      r.expect_end();
      if (frame_spec.session == session) {
        by_seq[header.chunk_seq] = std::move(elements);
      }
    }
    std::vector<bn::BigUInt> out;
    for (const auto& [seq, elements] : by_seq) {
      out.insert(out.end(), elements.begin(), elements.end());
    }
    return out;
  }

  SetSpec spec;
  std::vector<net::Message> decrypt_frames;
};

TEST_F(CollectorStreams, ReversedStreamsWithDuplicatesCombineInOrder) {
  // Session 41, the reference: both streams in seq order.
  for (std::uint32_t origin : {0u, 1u}) {
    for (std::uint32_t seq : {0u, 1u, 2u}) send_full(41, origin, seq, 3);
  }
  const std::vector<bn::BigUInt> in_order = combined(41);
  std::vector<bn::BigUInt> every_element;
  for (std::uint32_t origin : {0u, 1u}) {
    for (std::uint32_t seq : {0u, 1u, 2u}) {
      for (const auto& e : chunk(origin, seq)) every_element.push_back(e);
    }
  }
  std::sort(every_element.begin(), every_element.end());
  EXPECT_EQ(in_order, every_element);

  // Session 42: each stream in reverse seq order, one chunk of each twice.
  const std::uint64_t drops = cluster.dla(0).replay_drops();
  for (std::uint32_t origin : {0u, 1u}) {
    send_full(42, origin, 2, 3);
    send_full(42, origin, 1, 3);
    send_full(42, origin, 1, 3);  // duplicate
    send_full(42, origin, 0, 3);
  }
  EXPECT_EQ(combined(42), in_order);
  EXPECT_EQ(cluster.dla(0).replay_drops(), drops + 2);
  EXPECT_EQ(cluster.dla(0).set_ring_rejects(), 0u);
  EXPECT_EQ(cluster.dla(0).session_residue(), 0u);
}

TEST_F(CollectorStreams, LateFrameForCompleteOriginIsAReplay) {
  for (std::uint32_t seq : {0u, 1u, 2u}) send_full(43, 0, seq, 3);
  send_full(43, 1, 0, 3);  // origin 1's stream is still open
  const std::uint64_t drops = cluster.dla(0).replay_drops();
  // Origin 0's stream is complete, so a late frame for it is a replay even
  // when it declares another length.
  send_full(43, 0, 1, 2);
  EXPECT_EQ(cluster.dla(0).replay_drops(), drops + 1);
  EXPECT_EQ(cluster.dla(0).set_ring_rejects(), 0u);
  // The same disagreement on the open stream is a reject.
  send_full(43, 1, 1, 2);
  EXPECT_EQ(cluster.dla(0).set_ring_rejects(), 1u);
  EXPECT_TRUE(combined(43).empty());
  send_full(43, 1, 2, 3);
  send_full(43, 1, 1, 3);
  EXPECT_EQ(combined(43).size(), 12u);
  EXPECT_EQ(cluster.dla(0).replay_drops(), drops + 1);
  EXPECT_EQ(cluster.dla(0).session_residue(), 0u);
}

// Decrypt side: a union ring of P1 and P2, collected at P0, with one
// element per chunk. The decrypt frames each hop receives are held back and
// delivered in reverse seq order with one of them twice, first to P1 (a
// non-terminal hop), then what P1 forwarded to P2 (the terminal hop).
TEST(RingDecryptStreams, ReversedChunksWithDuplicatesDecryptOnce) {
  auto make_options = [] {
    Cluster::Options opts{logm::paper_schema(), 4, 1, logm::paper_partition(),
                          /*seed=*/42, /*auditor_users=*/true};
    opts.set_chunk_size = 1;
    return opts;
  };
  const SessionId session = 44;
  // Runs the ring on `cluster` up to the point the hold policy allows, and
  // returns the result P0 observes (if it arrives).
  auto start = [&](Cluster& cluster) {
    const auto& nodes = cluster.config()->dla_nodes;
    auto encode = [&](std::vector<std::string> items) {
      std::vector<bn::BigUInt> out;
      for (const auto& s : items) {
        out.push_back(crypto::encode_element(cluster.config()->ph_domain, s));
      }
      return out;
    };
    cluster.dla(1).stage_set_input(session, encode({"a", "b", "c"}));
    cluster.dla(2).stage_set_input(session, encode({"c", "d"}));
    SetSpec spec;
    spec.session = session;
    spec.op = SetOp::Union;
    spec.participants = {nodes[1], nodes[2]};
    spec.collector = nodes[0];
    spec.observers = {nodes[0]};
    cluster.dla(0).start_set_protocol(cluster.sim(), spec);
    cluster.run();
  };

  // Reference: the same ring, delivered as sent.
  Cluster reference(make_options());
  std::optional<std::vector<bn::BigUInt>> expected;
  reference.dla(0).on_set_result = [&](SessionId,
                                       std::vector<bn::BigUInt> elements) {
    expected = std::move(elements);
  };
  start(reference);
  ASSERT_TRUE(expected.has_value());
  ASSERT_EQ(expected->size(), 4u);

  Cluster cluster(make_options());
  const auto& nodes = cluster.config()->dla_nodes;
  std::map<net::NodeId, std::vector<net::Message>> held;  // by hop
  std::set<net::NodeId> holding = {nodes[1], nodes[2]};
  cluster.sim().set_drop_policy([&](const net::Message& m) {
    if (m.type != kSetDecrypt || !holding.contains(m.dst)) return false;
    held[m.dst].push_back(m);
    return true;
  });
  std::vector<std::vector<bn::BigUInt>> results;
  cluster.dla(0).on_set_result = [&](SessionId,
                                     std::vector<bn::BigUInt> elements) {
    results.push_back(std::move(elements));
  };
  start(cluster);
  ASSERT_EQ(held[nodes[1]].size(), 4u);

  // Delivers the frames held for `hop` in reverse seq order, the second
  // one twice, and returns the modexps the hop ran.
  auto seq_of = [](const net::Message& m) {
    net::Reader r(m.payload);
    SetSpec::decode(r);
    return SetChunkHeader::decode(r).chunk_seq;
  };
  auto deliver_reversed = [&](std::size_t hop) {
    const net::NodeId dst = nodes[hop];
    holding.erase(dst);
    std::vector<net::Message> frames = held[dst];
    std::sort(frames.begin(), frames.end(),
              [&](const net::Message& a, const net::Message& b) {
                return seq_of(a) > seq_of(b);
              });
    frames.insert(frames.begin() + 2, frames[1]);
    const std::uint64_t before = crypto::modexp_stats().modexp_count;
    for (const net::Message& m : frames) {
      cluster.sim().send(m.src, m.dst, m.type, m.payload);
      cluster.run();
    }
    return crypto::modexp_stats().modexp_count - before;
  };
  const std::uint64_t drops1 = cluster.dla(1).replay_drops();
  EXPECT_EQ(deliver_reversed(1), 4u);  // one decryption per chunk
  EXPECT_EQ(cluster.dla(1).replay_drops(), drops1 + 1);
  EXPECT_TRUE(results.empty());
  ASSERT_EQ(held[nodes[2]].size(), 4u);

  const std::uint64_t drops2 = cluster.dla(2).replay_drops();
  EXPECT_EQ(deliver_reversed(2), 4u);
  EXPECT_EQ(cluster.dla(2).replay_drops(), drops2 + 1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0], *expected);  // in seq order
  for (std::size_t i = 0; i < cluster.dla_count(); ++i) {
    EXPECT_EQ(cluster.dla(i).session_residue(), 0u) << "node " << i;
    EXPECT_EQ(cluster.dla(i).set_ring_rejects(), 0u) << "node " << i;
  }
}

}  // namespace
}  // namespace dla::audit
