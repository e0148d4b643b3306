// Chunked, pipelined secure-set ring-pass: differential equivalence against
// the legacy monolithic path (chunk size 0), malformed chunk-frame
// rejection, and stream-reassembly bookkeeping. The chunked ring must be
// bit-identical to monolithic for every chunk size, including degenerate
// ones (1 element per chunk; chunks larger than the whole set).
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "audit/cluster.hpp"
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

}  // namespace
}  // namespace dla::audit
