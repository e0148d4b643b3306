// Distributed-protocol tests: the relaxed secure computing primitives of
// Section 3 running as actor state machines over the simulated network.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <vector>

#include "audit/bootstrap.hpp"
#include "audit/cluster.hpp"
#include "audit/metrics.hpp"
#include "crypto/modexp_engine.hpp"
#include "crypto/pohlig_hellman.hpp"
#include "crypto/rng.hpp"
#include "logm/workload.hpp"
#include "net/bytes.hpp"

namespace dla::audit {
namespace {

// A small cluster over the paper's schema/partition for protocol tests.
struct ProtocolFixture : ::testing::Test {
  ProtocolFixture()
      : cluster(Cluster::Options{logm::paper_schema(), 4, 1,
                                 logm::paper_partition(), /*seed=*/42,
                                 /*auditor_users=*/true}) {}

  std::vector<bn::BigUInt> encode_set(const std::vector<std::string>& items) {
    std::vector<bn::BigUInt> out;
    for (const auto& s : items) {
      out.push_back(crypto::encode_element(cluster.config()->ph_domain, s));
    }
    return out;
  }

  Cluster cluster;
};

TEST_F(ProtocolFixture, ClusterConfigHelpers) {
  const auto& cfg = *cluster.config();
  EXPECT_EQ(cfg.cluster_size(), 4u);
  EXPECT_EQ(cfg.majority(), 3u);
  EXPECT_EQ(cfg.index_of(cfg.dla_nodes[2]), 2u);
  EXPECT_THROW(cfg.index_of(cfg.ttp), std::out_of_range);
  EXPECT_EQ(cfg.next_in_ring(3), cfg.dla_nodes[0]);  // wraps
}

// Cluster builds its shared state with make_bootstrap, so a simulated
// cluster and a dla_noded fleet given the same options agree on every id,
// the partition, the threshold key, each node's signing share and each
// user's ticket.
TEST(ClusterBootstrap, ClusterMatchesBootstrap) {
  auto ticket_bytes = [](const Ticket& ticket) {
    net::Writer w;
    ticket.encode(w);
    return std::move(w).take();
  };
  for (bool certify : {false, true}) {
    for (std::size_t n : {std::size_t{3}, std::size_t{5}}) {
      BootstrapOptions opt;
      opt.schema = logm::paper_schema();
      opt.dla_count = n;
      opt.user_count = 2;
      opt.seed = 9;
      opt.auditor_users = true;
      opt.certify_reports = certify;
      const Bootstrap boot = make_bootstrap(opt);
      Cluster cluster(Cluster::Options{opt.schema, n, opt.user_count,
                                       std::nullopt, opt.seed,
                                       opt.auditor_users, certify});
      const ClusterConfig& want = *boot.config;
      const ClusterConfig& got = *cluster.config();
      EXPECT_EQ(got.dla_nodes, want.dla_nodes);
      EXPECT_EQ(got.ttp, want.ttp);
      EXPECT_EQ(cluster.ttp().id(), Bootstrap::ttp_id(opt));
      EXPECT_EQ(got.threshold_params, want.threshold_params);
      EXPECT_EQ(got.sign_threshold_k, want.sign_threshold_k);
      ASSERT_EQ(got.partition.node_count(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(cluster.dla(i).id(), Bootstrap::dla_id(i));
        EXPECT_EQ(got.partition.attributes_of(i),
                  want.partition.attributes_of(i));
        const auto& share = cluster.dla(i).signing_share();
        ASSERT_EQ(share.has_value(), certify);
        if (certify) {
          EXPECT_EQ(share->index, boot.shares[i].index);
          EXPECT_EQ(share->x_share, boot.shares[i].x_share);
        }
      }
      for (std::size_t j = 0; j < opt.user_count; ++j) {
        EXPECT_EQ(cluster.user(j).id(), Bootstrap::user_id(opt, j));
        EXPECT_EQ(ticket_bytes(cluster.user(j).ticket()),
                  ticket_bytes(make_user_node(boot, opt, j)->ticket()));
      }
    }
  }
}

TEST_F(ProtocolFixture, TtpCountsSessionsServed) {
  EXPECT_EQ(cluster.ttp().sessions_served(), 0u);
  const SessionId session = 77;
  cluster.dla(0).stage_cmp_input(session, bn::BigUInt(1));
  cluster.dla(1).stage_cmp_input(session, bn::BigUInt(1));
  CmpSpec spec;
  spec.session = session;
  spec.op = CmpOpKind::Equality;
  spec.participants = {cluster.config()->dla_nodes[0],
                       cluster.config()->dla_nodes[1]};
  spec.ttp = cluster.config()->ttp;
  spec.observers = {cluster.config()->dla_nodes[0]};
  cluster.dla(0).start_cmp(cluster.sim(), spec);
  cluster.run();
  EXPECT_EQ(cluster.ttp().sessions_served(), 1u);
}

// ------------------------------------------------- secure set protocols --

TEST_F(ProtocolFixture, SetIntersectionFigure4Example) {
  // The exact example of Figure 4: S1={c,d,e}, S2={d,e,f}, S3={e,f,g} on
  // three nodes; the intersection is {e}.
  const SessionId session = 1;
  cluster.dla(0).stage_set_input(session, encode_set({"c", "d", "e"}));
  cluster.dla(1).stage_set_input(session, encode_set({"d", "e", "f"}));
  cluster.dla(2).stage_set_input(session, encode_set({"e", "f", "g"}));

  std::optional<std::vector<bn::BigUInt>> result;
  cluster.dla(0).on_set_result = [&](SessionId s,
                                     std::vector<bn::BigUInt> elements) {
    ASSERT_EQ(s, session);
    result = std::move(elements);
  };
  SetSpec spec;
  spec.session = session;
  spec.op = SetOp::Intersect;
  spec.participants = {cluster.config()->dla_nodes[0],
                       cluster.config()->dla_nodes[1],
                       cluster.config()->dla_nodes[2]};
  spec.collector = cluster.config()->dla_nodes[0];
  spec.observers = {cluster.config()->dla_nodes[0]};
  cluster.dla(0).start_set_protocol(cluster.sim(), spec);
  cluster.run();

  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0],
            crypto::encode_element(cluster.config()->ph_domain, "e"));
}

TEST_F(ProtocolFixture, SetIntersectionEmpty) {
  const SessionId session = 2;
  cluster.dla(0).stage_set_input(session, encode_set({"a"}));
  cluster.dla(1).stage_set_input(session, encode_set({"b"}));
  std::optional<std::vector<bn::BigUInt>> result;
  cluster.dla(1).on_set_result = [&](SessionId, std::vector<bn::BigUInt> e) {
    result = std::move(e);
  };
  SetSpec spec;
  spec.session = session;
  spec.participants = {cluster.config()->dla_nodes[0],
                       cluster.config()->dla_nodes[1]};
  spec.collector = cluster.config()->dla_nodes[1];
  spec.observers = {cluster.config()->dla_nodes[1]};
  cluster.dla(0).start_set_protocol(cluster.sim(), spec);
  cluster.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->empty());
}

TEST_F(ProtocolFixture, SetUnionDeduplicates) {
  const SessionId session = 3;
  cluster.dla(0).stage_set_input(session, encode_set({"a", "b"}));
  cluster.dla(1).stage_set_input(session, encode_set({"b", "c"}));
  cluster.dla(2).stage_set_input(session, encode_set({"c", "d"}));
  std::optional<std::vector<bn::BigUInt>> result;
  cluster.dla(2).on_set_result = [&](SessionId, std::vector<bn::BigUInt> e) {
    result = std::move(e);
  };
  SetSpec spec;
  spec.session = session;
  spec.op = SetOp::Union;
  spec.participants = {cluster.config()->dla_nodes[0],
                       cluster.config()->dla_nodes[1],
                       cluster.config()->dla_nodes[2]};
  spec.collector = cluster.config()->dla_nodes[0];
  spec.observers = {cluster.config()->dla_nodes[2]};
  cluster.dla(0).start_set_protocol(cluster.sim(), spec);
  cluster.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->size(), 4u);  // {a, b, c, d}
  std::vector<bn::BigUInt> expected = encode_set({"a", "b", "c", "d"});
  std::sort(expected.begin(), expected.end());
  std::sort(result->begin(), result->end());
  EXPECT_EQ(*result, expected);
}

TEST_F(ProtocolFixture, SetIntersectionAllFourNodes) {
  const SessionId session = 4;
  for (std::size_t i = 0; i < 4; ++i) {
    cluster.dla(i).stage_set_input(
        session, encode_set({"common", "own-" + std::to_string(i)}));
  }
  std::optional<std::vector<bn::BigUInt>> result;
  cluster.dla(3).on_set_result = [&](SessionId, std::vector<bn::BigUInt> e) {
    result = std::move(e);
  };
  SetSpec spec;
  spec.session = session;
  spec.participants = cluster.config()->dla_nodes;
  spec.collector = cluster.config()->dla_nodes[2];
  spec.observers = {cluster.config()->dla_nodes[3]};
  cluster.dla(1).start_set_protocol(cluster.sim(), spec);
  cluster.run();
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0],
            crypto::encode_element(cluster.config()->ph_domain, "common"));
}

TEST_F(ProtocolFixture, SetRingResultIdenticalWithBatchingOnAndOff) {
  // Differential: the same protocol run (same seed, same inputs) must
  // produce bit-identical results whether each batch fans out across four
  // threads or runs on one.
  auto run_once = [](std::size_t threads) {
    crypto::ModExpEngine::set_batch_threads(threads);
    Cluster c(Cluster::Options{logm::paper_schema(), 4, 1,
                               logm::paper_partition(), /*seed=*/42,
                               /*auditor_users=*/true});
    auto encode = [&](const std::vector<std::string>& items) {
      std::vector<bn::BigUInt> out;
      for (const auto& s : items) {
        out.push_back(crypto::encode_element(c.config()->ph_domain, s));
      }
      return out;
    };
    const SessionId session = 9;
    c.dla(0).stage_set_input(session, encode({"c", "d", "e", "k"}));
    c.dla(1).stage_set_input(session, encode({"d", "e", "f", "k"}));
    c.dla(2).stage_set_input(session, encode({"e", "f", "g", "k"}));
    std::vector<bn::BigUInt> result;
    c.dla(0).on_set_result = [&](SessionId, std::vector<bn::BigUInt> e) {
      result = std::move(e);
    };
    SetSpec spec;
    spec.session = session;
    spec.op = SetOp::Intersect;
    spec.participants = {c.config()->dla_nodes[0], c.config()->dla_nodes[1],
                         c.config()->dla_nodes[2]};
    spec.collector = c.config()->dla_nodes[0];
    spec.observers = {c.config()->dla_nodes[0]};
    c.dla(0).start_set_protocol(c.sim(), spec);
    c.run();
    std::sort(result.begin(), result.end());
    return result;
  };
  std::vector<bn::BigUInt> batched = run_once(4);
  std::vector<bn::BigUInt> serial = run_once(1);
  crypto::ModExpEngine::set_batch_threads(0);
  ASSERT_EQ(batched.size(), 2u);  // {e, k}
  EXPECT_EQ(batched, serial);
}

TEST_F(ProtocolFixture, RingMessageToNonParticipantIsDropped) {
  // dla(3) is NOT in participants but receives a kSetRing naming it as the
  // recipient: it must drop the message (counted in set_ring_rejects())
  // instead of joining the ring at a fabricated position.
  const SessionId session = 8;
  SetSpec spec;
  spec.session = session;
  spec.op = SetOp::Intersect;
  spec.participants = {cluster.config()->dla_nodes[0],
                       cluster.config()->dla_nodes[1]};
  spec.collector = cluster.config()->dla_nodes[0];
  spec.observers = {cluster.config()->dla_nodes[0]};

  bool got_result = false;
  cluster.dla(0).on_set_result = [&](SessionId, std::vector<bn::BigUInt>) {
    got_result = true;
  };
  net::Writer w;
  spec.encode(w);
  SetChunkHeader{0, kRingEncrypt, 0, 1}.encode(w);
  w.u32(1);  // hops
  encode_elements(w, {crypto::encode_element(cluster.config()->ph_domain, "x")});
  EXPECT_EQ(cluster.dla(3).set_ring_rejects(), 0u);
  cluster.sim().send(cluster.config()->dla_nodes[0],
                     cluster.config()->dla_nodes[3], kSetRing,
                     std::move(w).take());
  cluster.run();
  EXPECT_EQ(cluster.dla(3).set_ring_rejects(), 1u);
  EXPECT_FALSE(got_result);  // ring died at the invalid hop; nothing forwarded

  // Same guard on kSetStart: a start sent to a non-participant is rejected.
  net::Writer w2;
  spec.encode(w2);
  cluster.sim().send(cluster.config()->dla_nodes[0],
                     cluster.config()->dla_nodes[3], kSetStart,
                     std::move(w2).take());
  cluster.run();
  EXPECT_EQ(cluster.dla(3).set_ring_rejects(), 2u);
}

TEST_F(ProtocolFixture, MissingStagedInputActsAsEmptySet) {
  const SessionId session = 5;
  cluster.dla(0).stage_set_input(session, encode_set({"x"}));
  // dla(1) stages nothing.
  std::optional<std::vector<bn::BigUInt>> result;
  cluster.dla(0).on_set_result = [&](SessionId, std::vector<bn::BigUInt> e) {
    result = std::move(e);
  };
  SetSpec spec;
  spec.session = session;
  spec.participants = {cluster.config()->dla_nodes[0],
                       cluster.config()->dla_nodes[1]};
  spec.collector = cluster.config()->dla_nodes[0];
  spec.observers = {cluster.config()->dla_nodes[0]};
  cluster.dla(0).start_set_protocol(cluster.sim(), spec);
  cluster.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->empty());
}

// --------------------------------------------------------- secure sum --

TEST_F(ProtocolFixture, SecureSumBasic) {
  const SessionId session = 10;
  std::uint64_t values[] = {100, 250, 3, 9999};
  for (std::size_t i = 0; i < 4; ++i) {
    cluster.dla(i).stage_sum_input(session, bn::BigUInt(values[i]));
  }
  std::optional<bn::BigUInt> result;
  cluster.dla(0).on_sum_result = [&](SessionId, bn::BigUInt v) {
    result = std::move(v);
  };
  SumSpec spec;
  spec.session = session;
  spec.participants = cluster.config()->dla_nodes;
  spec.threshold_k = 3;
  spec.collector = cluster.config()->dla_nodes[0];
  spec.observers = {cluster.config()->dla_nodes[0]};
  cluster.dla(0).start_sum(cluster.sim(), spec);
  cluster.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, bn::BigUInt(100 + 250 + 3 + 9999));
}

TEST_F(ProtocolFixture, SecureSumWeighted) {
  const SessionId session = 11;
  std::uint64_t values[] = {10, 20, 30, 40};
  for (std::size_t i = 0; i < 4; ++i) {
    cluster.dla(i).stage_sum_input(session, bn::BigUInt(values[i]));
  }
  std::optional<bn::BigUInt> result;
  cluster.dla(2).on_sum_result = [&](SessionId, bn::BigUInt v) {
    result = std::move(v);
  };
  SumSpec spec;
  spec.session = session;
  spec.participants = cluster.config()->dla_nodes;
  spec.threshold_k = 2;
  spec.collector = cluster.config()->dla_nodes[1];
  spec.observers = {cluster.config()->dla_nodes[2]};
  spec.weights = {bn::BigUInt(1), bn::BigUInt(2), bn::BigUInt(3),
                  bn::BigUInt(4)};
  cluster.dla(3).start_sum(cluster.sim(), spec);
  cluster.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, bn::BigUInt(1 * 10 + 2 * 20 + 3 * 30 + 4 * 40));
}

TEST_F(ProtocolFixture, SecureSumMissingInputIsZero) {
  const SessionId session = 12;
  cluster.dla(0).stage_sum_input(session, bn::BigUInt(5));
  // Others stage nothing -> contribute 0.
  std::optional<bn::BigUInt> result;
  cluster.dla(0).on_sum_result = [&](SessionId, bn::BigUInt v) {
    result = std::move(v);
  };
  SumSpec spec;
  spec.session = session;
  spec.participants = cluster.config()->dla_nodes;
  spec.threshold_k = 4;
  spec.collector = cluster.config()->dla_nodes[0];
  spec.observers = {cluster.config()->dla_nodes[0]};
  cluster.dla(0).start_sum(cluster.sim(), spec);
  cluster.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, bn::BigUInt(5));
}

TEST_F(ProtocolFixture, SecureSumRejectsBadSpecs) {
  SumSpec spec;
  spec.session = 13;
  spec.participants = cluster.config()->dla_nodes;
  spec.threshold_k = 0;
  spec.collector = cluster.config()->dla_nodes[0];
  EXPECT_THROW(cluster.dla(0).start_sum(cluster.sim(), spec),
               std::invalid_argument);
  spec.threshold_k = 5;
  EXPECT_THROW(cluster.dla(0).start_sum(cluster.sim(), spec),
               std::invalid_argument);
  spec.threshold_k = 2;
  spec.weights = {bn::BigUInt(1)};
  EXPECT_THROW(cluster.dla(0).start_sum(cluster.sim(), spec),
               std::invalid_argument);
}

// Secure-sum frames as a hostile peer could send them, bypassing
// start_sum's local checks.
struct SumWireFixture : ProtocolFixture {
  SumWireFixture() {
    spec.participants = cluster.config()->dla_nodes;
    spec.threshold_k = 2;
    spec.collector = spec.participants[0];
    spec.observers = {spec.participants[0]};
    cluster.dla(0).on_sum_result = [this](SessionId, bn::BigUInt v) {
      result = std::move(v);
    };
    reset_wire_reject_counters();
  }
  void send_start(net::NodeId to) {
    net::Writer w;
    spec.encode(w);
    cluster.sim().send(spec.participants[0], to, kSumStart,
                       std::move(w).take());
  }
  void send_share(net::NodeId from_node, net::NodeId to, std::uint32_t from) {
    net::Writer w;
    w.u64(spec.session);
    w.u32(from);
    w.big(bn::BigUInt(1000));
    cluster.sim().send(from_node, to, kSumShare, std::move(w).take());
  }
  std::size_t residue() {
    std::size_t total = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      total += cluster.dla(i).session_residue();
    }
    return total;
  }
  SumSpec spec;
  std::optional<bn::BigUInt> result;
};

TEST_F(SumWireFixture, SpecWithThresholdOutsideOneToNIsRefused) {
  spec.session = 14;
  for (std::uint32_t k : {0u, 9u}) {
    spec.threshold_k = k;
    send_start(spec.participants[1]);
    EXPECT_NO_THROW(cluster.run());
  }
  EXPECT_EQ(wire_reject_counters().codec_rejects, 2u);
  EXPECT_EQ(residue(), 0u);
  EXPECT_FALSE(result.has_value());
}

TEST_F(SumWireFixture, SpecWithOneWeightForFourParticipantsIsRefused) {
  spec.session = 15;
  spec.weights = {bn::BigUInt(3)};
  for (net::NodeId p : spec.participants) send_start(p);
  EXPECT_NO_THROW(cluster.run());
  EXPECT_EQ(wire_reject_counters().codec_rejects, 4u);
  EXPECT_EQ(residue(), 0u);
  EXPECT_FALSE(result.has_value());
}

TEST_F(SumWireFixture, ForgedSharesCannotCompleteTheSum) {
  spec.session = 16;
  spec.observers = spec.participants;  // every node retires its sum state
  const std::uint64_t values[] = {10, 20, 30, 40};
  for (std::size_t i = 0; i < 4; ++i) {
    cluster.dla(i).stage_sum_input(spec.session, bn::BigUInt(values[i]));
  }
  // Before the spec: indices past the participants, and P0's index sent by
  // P3. Each would otherwise count toward a node's n shares.
  const net::NodeId forger = spec.participants[3];
  for (net::NodeId to : spec.participants) {
    for (std::uint32_t from : {5u, 6u, 7u}) send_share(forger, to, from);
  }
  send_share(forger, spec.participants[1], 0);
  cluster.run();
  // After the spec reached P0..P2 but not P3: each waits for P3's share, so
  // a forged one is refused on arrival.
  for (std::size_t i = 0; i < 3; ++i) send_start(spec.participants[i]);
  cluster.run();
  send_share(spec.participants[1], spec.participants[2], 3);
  cluster.run();
  EXPECT_FALSE(result.has_value());
  send_start(spec.participants[3]);
  EXPECT_NO_THROW(cluster.run());
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, bn::BigUInt(10 + 20 + 30 + 40));
  EXPECT_EQ(wire_reject_counters().codec_rejects, 3u * 4u + 1u + 1u);
  EXPECT_EQ(residue(), 0u);
}

// A spec that does not list the node it reaches: P3 gets a kSumStart and a
// kCmpParams for sessions of P0..P2. It deals no shares, sends no value and
// keeps no state; each frame counts one codec reject.
TEST_F(ProtocolFixture, MisroutedSumStartAndCmpParamsLeaveNoState) {
  const auto& nodes = cluster.config()->dla_nodes;
  const net::NodeId outsider = nodes[3];
  SumSpec sum;
  sum.session = 17;
  sum.participants = {nodes[0], nodes[1], nodes[2]};
  sum.threshold_k = 2;
  sum.collector = nodes[0];
  sum.observers = {nodes[0]};
  CmpSpec cmp;
  cmp.session = 27;
  cmp.op = CmpOpKind::Equality;
  cmp.participants = {nodes[0], nodes[1], nodes[2]};
  cmp.ttp = cluster.config()->ttp;
  cmp.observers = {nodes[0]};
  cmp.a = bn::BigUInt(3);
  cmp.b = bn::BigUInt(5);
  std::size_t sent_by_outsider = 0;
  cluster.sim().set_deliver_hook([&](const net::Message& m) {
    if (m.src == outsider) ++sent_by_outsider;
  });
  reset_wire_reject_counters();
  net::Writer start;
  sum.encode(start);
  cluster.sim().send(nodes[0], outsider, kSumStart, std::move(start).take());
  net::Writer params;
  cmp.encode(params, /*include_transform=*/true);
  cluster.sim().send(nodes[0], outsider, kCmpParams,
                     std::move(params).take());
  EXPECT_NO_THROW(cluster.run());
  EXPECT_EQ(sent_by_outsider, 0u);
  EXPECT_EQ(wire_reject_counters().codec_rejects, 2u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(cluster.dla(i).session_residue(), 0u) << "node " << i;
  }
  EXPECT_EQ(cluster.ttp().session_residue(), 0u);
  cluster.sim().set_deliver_hook(nullptr);
  reset_wire_reject_counters();
}

// --------------------------------------------- blind-TTP comparisons --

TEST_F(ProtocolFixture, SecureEqualityEqual) {
  const SessionId session = 20;
  cluster.dla(0).stage_cmp_input(session, bn::BigUInt(777));
  cluster.dla(1).stage_cmp_input(session, bn::BigUInt(777));
  std::optional<std::uint32_t> outcome;
  cluster.dla(0).on_cmp_result = [&](SessionId, CmpOpKind op,
                                     std::uint32_t result) {
    EXPECT_EQ(op, CmpOpKind::Equality);
    outcome = result;
  };
  CmpSpec spec;
  spec.session = session;
  spec.op = CmpOpKind::Equality;
  spec.participants = {cluster.config()->dla_nodes[0],
                       cluster.config()->dla_nodes[1]};
  spec.ttp = cluster.config()->ttp;
  spec.observers = {cluster.config()->dla_nodes[0]};
  cluster.dla(0).start_cmp(cluster.sim(), spec);
  cluster.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(*outcome, 1u);
}

TEST_F(ProtocolFixture, SecureEqualityUnequal) {
  const SessionId session = 21;
  cluster.dla(0).stage_cmp_input(session, bn::BigUInt(777));
  cluster.dla(1).stage_cmp_input(session, bn::BigUInt(778));
  std::optional<std::uint32_t> outcome;
  cluster.dla(1).on_cmp_result = [&](SessionId, CmpOpKind,
                                     std::uint32_t result) {
    outcome = result;
  };
  CmpSpec spec;
  spec.session = session;
  spec.op = CmpOpKind::Equality;
  spec.participants = {cluster.config()->dla_nodes[0],
                       cluster.config()->dla_nodes[1]};
  spec.ttp = cluster.config()->ttp;
  spec.observers = {cluster.config()->dla_nodes[1]};
  cluster.dla(1).start_cmp(cluster.sim(), spec);
  cluster.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(*outcome, 0u);
}

TEST_F(ProtocolFixture, SecureMaxAndMin) {
  std::uint64_t values[] = {40, 170, 3, 99};
  for (SessionId session : {SessionId{22}, SessionId{23}}) {
    for (std::size_t i = 0; i < 4; ++i) {
      cluster.dla(i).stage_cmp_input(session, bn::BigUInt(values[i]));
    }
  }
  std::optional<std::uint32_t> max_winner, min_winner;
  cluster.dla(0).on_cmp_result = [&](SessionId s, CmpOpKind op,
                                     std::uint32_t result) {
    if (op == CmpOpKind::Max) max_winner = result;
    if (op == CmpOpKind::Min) min_winner = result;
    (void)s;
  };
  CmpSpec spec;
  spec.op = CmpOpKind::Max;
  spec.session = 22;
  spec.participants = cluster.config()->dla_nodes;
  spec.ttp = cluster.config()->ttp;
  spec.observers = {cluster.config()->dla_nodes[0]};
  cluster.dla(0).start_cmp(cluster.sim(), spec);
  spec.op = CmpOpKind::Min;
  spec.session = 23;
  cluster.dla(0).start_cmp(cluster.sim(), spec);
  cluster.run();
  ASSERT_TRUE(max_winner.has_value());
  ASSERT_TRUE(min_winner.has_value());
  EXPECT_EQ(*max_winner, 1u);  // 170
  EXPECT_EQ(*min_winner, 2u);  // 3
}

TEST_F(ProtocolFixture, SecureRankIsPrivatePerParticipant) {
  const SessionId session = 24;
  std::uint64_t values[] = {40, 170, 3, 99};
  std::map<std::size_t, std::uint32_t> ranks;
  for (std::size_t i = 0; i < 4; ++i) {
    cluster.dla(i).stage_cmp_input(session, bn::BigUInt(values[i]));
    cluster.dla(i).on_rank = [&, i](SessionId, std::uint32_t rank) {
      ranks[i] = rank;
    };
  }
  CmpSpec spec;
  spec.session = session;
  spec.op = CmpOpKind::Rank;
  spec.participants = cluster.config()->dla_nodes;
  spec.ttp = cluster.config()->ttp;
  spec.observers = {};
  cluster.dla(0).start_cmp(cluster.sim(), spec);
  cluster.run();
  ASSERT_EQ(ranks.size(), 4u);
  EXPECT_EQ(ranks[2], 0u);  // 3 is smallest
  EXPECT_EQ(ranks[0], 1u);  // 40
  EXPECT_EQ(ranks[3], 2u);  // 99
  EXPECT_EQ(ranks[1], 3u);  // 170 is largest
}

// The TTP counts a kCmpValue only from the participant at its index. These
// sessions drive the TTP frame by frame: three participants with W = 10, 11,
// 12, and a forged value at index 7 from P3, which is not in the session.
struct TtpForgeryFixture : ProtocolFixture {
  TtpForgeryFixture() {
    const auto& nodes = cluster.config()->dla_nodes;
    spec.participants = {nodes[0], nodes[1], nodes[2]};
    spec.ttp = cluster.config()->ttp;
  }
  void send_spec() {
    net::Writer w;
    spec.encode(w, /*include_transform=*/false);
    cluster.sim().send(spec.participants[0], spec.ttp, kCmpSpec,
                       std::move(w).take());
    cluster.run();
  }
  void send_value(net::NodeId from, std::uint32_t index, std::uint64_t value) {
    net::Writer w;
    w.u64(spec.session);
    w.u32(index);
    w.big(bn::BigUInt(value));
    cluster.sim().send(from, spec.ttp, kCmpValue, std::move(w).take());
    cluster.run();
  }
  net::NodeId forger() const { return cluster.config()->dla_nodes[3]; }
  CmpSpec spec;
};

TEST_F(TtpForgeryFixture, ForgedValueAfterSpecCannotDecideMax) {
  spec.session = 25;
  spec.op = CmpOpKind::Max;
  spec.observers = {spec.participants[0]};
  std::optional<std::uint32_t> winner;
  cluster.dla(0).on_cmp_result = [&](SessionId, CmpOpKind,
                                     std::uint32_t result) { winner = result; };
  send_spec();
  send_value(spec.participants[0], 0, 10);
  send_value(spec.participants[1], 1, 11);
  reset_wire_reject_counters();
  send_value(forger(), 7, 1);
  EXPECT_EQ(wire_reject_counters().codec_rejects, 1u);
  EXPECT_FALSE(winner.has_value());  // still one real value short
  send_value(spec.participants[2], 2, 12);
  ASSERT_TRUE(winner.has_value());
  EXPECT_EQ(*winner, 2u);
  EXPECT_EQ(cluster.ttp().session_residue(), 0u);
}

TEST_F(TtpForgeryFixture, ForgedValueBeforeSpecIsDroppedFromRank) {
  spec.session = 26;
  spec.op = CmpOpKind::Rank;
  std::map<std::size_t, std::uint32_t> ranks;
  for (std::size_t i = 0; i < 4; ++i) {
    cluster.dla(i).on_rank = [&, i](SessionId, std::uint32_t rank) {
      ranks[i] = rank;
    };
  }
  send_value(spec.participants[0], 0, 10);
  send_value(spec.participants[1], 1, 11);
  send_value(forger(), 7, 1);
  reset_wire_reject_counters();
  send_spec();
  EXPECT_EQ(wire_reject_counters().codec_rejects, 1u);
  EXPECT_TRUE(ranks.empty());
  send_value(spec.participants[2], 2, 12);
  ASSERT_EQ(ranks.size(), 3u);
  EXPECT_EQ(ranks[0], 0u);
  EXPECT_EQ(ranks[1], 1u);
  EXPECT_EQ(ranks[2], 2u);
  EXPECT_EQ(cluster.ttp().session_residue(), 0u);
}

TEST_F(ProtocolFixture, TtpRejectsCmpBatchSideOutOfRange) {
  const auto& nodes = cluster.config()->dla_nodes;
  net::Writer w;
  w.u64(5);  // rid
  w.u64(1);  // qid
  w.u8(2);   // side: only 0 and 1 exist
  w.u8(static_cast<std::uint8_t>(CmpOp::Lt));
  w.u32(nodes[0]);  // result owner
  w.u32(nodes[1]);  // gateway
  w.vec(std::vector<CmpBatchEntry>{},
        [](net::Writer& out, const CmpBatchEntry& e) {
          out.u64(e.glsn);
          out.big(e.w);
        });
  reset_wire_reject_counters();
  cluster.sim().send(nodes[0], cluster.config()->ttp, kCmpBatch,
                     std::move(w).take());
  cluster.run();
  EXPECT_EQ(wire_reject_counters().codec_rejects, 1u);
  EXPECT_EQ(cluster.ttp().session_residue(), 0u);
  reset_wire_reject_counters();
}

// ------------------------------------------------- integrity checking --

struct IntegrityFixture : ProtocolFixture {
  // Log the paper's Table 1 records through a user node so fragments and
  // accumulator deposits are in place.
  void log_paper_records() {
    for (const auto& rec : logm::paper_table1_records()) {
      cluster.user(0).log_record(
          cluster.sim(), rec.attrs,
          [&](std::optional<logm::Glsn> glsn) { glsns.push_back(*glsn); });
    }
    cluster.run();
    ASSERT_EQ(glsns.size(), 5u);
  }
  std::vector<logm::Glsn> glsns;
};

TEST_F(IntegrityFixture, IntactRecordPasses) {
  log_paper_records();
  std::optional<bool> ok;
  cluster.dla(0).on_integrity_result = [&](SessionId, logm::Glsn, bool result) {
    ok = result;
  };
  cluster.dla(0).start_integrity_check(cluster.sim(), 100, glsns[0]);
  cluster.run();
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(*ok);
}

TEST_F(IntegrityFixture, TamperedFragmentDetected) {
  log_paper_records();
  // A compromised DLA node rewrites a stored attribute (Section 4.1 threat).
  logm::Fragment tampered = *cluster.dla(1).store().get(glsns[1]);
  tampered.attrs["C2"] = logm::Value(999999.0);
  cluster.dla(1).store().put(tampered);

  std::optional<bool> ok;
  cluster.dla(2).on_integrity_result = [&](SessionId, logm::Glsn, bool result) {
    ok = result;
  };
  cluster.dla(2).start_integrity_check(cluster.sim(), 101, glsns[1]);
  cluster.run();
  ASSERT_TRUE(ok.has_value());
  EXPECT_FALSE(*ok);
}

TEST_F(IntegrityFixture, DeletedFragmentDetected) {
  log_paper_records();
  cluster.dla(3).store().erase(glsns[2]);
  std::optional<bool> ok;
  cluster.dla(0).on_integrity_result = [&](SessionId, logm::Glsn, bool result) {
    ok = result;
  };
  cluster.dla(0).start_integrity_check(cluster.sim(), 102, glsns[2]);
  cluster.run();
  ASSERT_TRUE(ok.has_value());
  EXPECT_FALSE(*ok);
}

TEST_F(IntegrityFixture, UnknownGlsnFails) {
  log_paper_records();
  std::optional<bool> ok;
  cluster.dla(0).on_integrity_result = [&](SessionId, logm::Glsn, bool result) {
    ok = result;
  };
  cluster.dla(0).start_integrity_check(cluster.sim(), 103, 0xdeadbeef);
  cluster.run();
  ASSERT_TRUE(ok.has_value());
  EXPECT_FALSE(*ok);
}

TEST_F(IntegrityFixture, EveryNodeCanInitiate) {
  log_paper_records();
  for (std::size_t i = 0; i < 4; ++i) {
    std::optional<bool> ok;
    cluster.dla(i).on_integrity_result =
        [&](SessionId, logm::Glsn, bool result) { ok = result; };
    cluster.dla(i).start_integrity_check(cluster.sim(), 200 + i, glsns[4]);
    cluster.run();
    ASSERT_TRUE(ok.has_value()) << "initiator " << i;
    EXPECT_TRUE(*ok) << "initiator " << i;
  }
}

TEST_F(IntegrityFixture, AclConsistencyHoldsAfterLogging) {
  log_paper_records();
  std::optional<bool> consistent;
  cluster.dla(0).on_acl_check = [&](SessionId, bool result) {
    consistent = result;
  };
  cluster.dla(0).start_acl_consistency_check(cluster.sim(), 300);
  cluster.run();
  ASSERT_TRUE(consistent.has_value());
  EXPECT_TRUE(*consistent);
}

// Logs one record through user 0 and returns its glsn together with the
// upload frame that reached `node` (as delivered, deposit included).
struct CapturedWrite {
  logm::Glsn glsn = 0;
  net::Message upload;
};
CapturedWrite log_one_capturing(Cluster& cluster, std::size_t node) {
  CapturedWrite out;
  const net::NodeId dst = cluster.dla(node).id();
  cluster.sim().set_deliver_hook([&](const net::Message& m) {
    if (m.type == kLogFragment && m.dst == dst) out.upload = m;
  });
  cluster.user(0).log_record(
      cluster.sim(), logm::paper_table1_records()[0].attrs,
      [&](std::optional<logm::Glsn> glsn) { out.glsn = glsn.value_or(0); });
  cluster.run();
  cluster.sim().set_deliver_hook(nullptr);
  return out;
}

// Records the `ok` flag of every kLogAck addressed to it.
struct AckProbe : net::Node {
  void on_message(net::Transport&, const net::Message& msg) override {
    net::Reader r(msg.payload);
    r.u64();  // glsn
    acks.push_back(r.boolean());
    r.u32();  // copy_seq
    r.expect_end();
  }
  std::vector<bool> acks;
};

bool integrity_passes(Cluster& cluster, std::size_t initiator,
                      logm::Glsn glsn) {
  std::optional<bool> ok;
  cluster.dla(initiator).on_integrity_result =
      [&](SessionId, logm::Glsn, bool result) { ok = result; };
  cluster.dla(initiator).start_integrity_check(cluster.sim(), 400 + initiator,
                                               glsn);
  cluster.run();
  return ok.value_or(false);
}

// A Write ticket cannot overwrite a record another ticket stored, in the
// primary store or by flagging its upload as a replica copy: the node acks
// the upload refused and keeps the fragment, the deposit and the ACL. The
// owner's own duplicate upload stays idempotent.
TEST_F(IntegrityFixture, UploadOverAnotherTicketsRecordIsRefused) {
  const CapturedWrite write = log_one_capturing(cluster, 1);
  ASSERT_NE(write.glsn, 0u);
  DlaNode& owner = cluster.dla(1);
  const logm::Fragment original = *owner.store().get(write.glsn);
  const bn::BigUInt deposit = owner.deposits().at(write.glsn);
  const logm::AccessControlTable acl = owner.acl();

  AckProbe probe;
  const net::NodeId probe_id = cluster.sim().add_node(probe);
  const Ticket evil = cluster.issue_ticket("EVIL", "mallory", {logm::Op::Write});
  logm::Fragment forged = original;
  forged.attrs["C2"] = logm::Value(1.0);
  for (bool is_replica : {false, true}) {
    net::Writer w;
    evil.encode(w);
    w.boolean(is_replica);
    forged.encode(w);
    w.u32(0);  // copy_seq
    w.big(bn::BigUInt(666));
    cluster.sim().send(probe_id, owner.id(), kLogFragment,
                       std::move(w).take());
  }
  cluster.run();
  EXPECT_EQ(probe.acks, (std::vector<bool>{false, false}));
  EXPECT_EQ(*owner.store().get(write.glsn), original);
  EXPECT_FALSE(owner.replica_storage().contains(write.glsn));
  EXPECT_EQ(owner.deposits().at(write.glsn), deposit);
  EXPECT_TRUE(owner.acl() == acl);
  EXPECT_TRUE(integrity_passes(cluster, 0, write.glsn));

  cluster.sim().send(probe_id, owner.id(), kLogFragment, write.upload.payload);
  cluster.run();
  EXPECT_EQ(probe.acks, (std::vector<bool>{false, false, true}));
  EXPECT_EQ(*owner.store().get(write.glsn), original);
  EXPECT_EQ(owner.deposits().at(write.glsn), deposit);
}

// ------------------------------------------------------ write path cost --

// One write at n = 4 takes 4n + 4 = 20 deliveries: request, forward, n
// proposals, n votes, reply to the gateway and on to the user, and one
// upload plus one ack per node. Nothing else: no commit broadcast (retired
// id 0x14) and no separate deposit fan-out (retired id 0x22).
TEST_F(IntegrityFixture, OneWriteCostsFourNPlusFourMessages) {
  std::map<std::uint32_t, std::size_t> delivered;
  cluster.sim().set_deliver_hook(
      [&](const net::Message& m) { ++delivered[m.type]; });
  std::optional<logm::Glsn> glsn;
  cluster.user(0).log_record(
      cluster.sim(), logm::paper_table1_records()[0].attrs,
      [&](std::optional<logm::Glsn> g) { glsn = g; });
  cluster.run();
  cluster.sim().set_deliver_hook(nullptr);
  ASSERT_TRUE(glsn.has_value());
  const std::map<std::uint32_t, std::size_t> expected = {
      {kGlsnRequest, 1}, {kGlsnForward, 1}, {kGlsnPropose, 4},
      {kGlsnVote, 4},    {kGlsnReply, 2},   {kLogFragment, 4},
      {kLogAck, 4}};
  EXPECT_EQ(delivered, expected);
}

// Writes that reach the leader before its first proposal's votes return
// each get the next value at proposal time: one round of n proposals per
// write, no retry, and glsns in issue order.
TEST(WritePath, ConcurrentWritesAtOneGatewayProposeOncePerWrite) {
  Cluster cluster(Cluster::Options{logm::paper_schema(), 4, 4,
                                   logm::paper_partition(), /*seed=*/42,
                                   /*auditor_users=*/true});
  std::size_t proposals = 0;
  cluster.sim().set_deliver_hook([&](const net::Message& m) {
    if (m.type == kGlsnPropose) ++proposals;
  });
  std::vector<std::optional<logm::Glsn>> assigned(4);
  for (std::size_t u = 0; u < 4; ++u) {
    cluster.user(u).set_gateway(0);
    cluster.user(u).log_record(
        cluster.sim(), logm::paper_table1_records()[u].attrs,
        [&assigned, u](std::optional<logm::Glsn> g) { assigned[u] = g; });
  }
  cluster.run();
  EXPECT_EQ(proposals, 16u);
  for (std::size_t u = 0; u < 4; ++u) {
    EXPECT_EQ(assigned[u], std::optional<logm::Glsn>(0x139aef78 + u))
        << "user " << u;
  }
}

// The retired deposit id 0x22 is a raw, ticketless frame: it must not
// replace any node's deposit, so the record still passes its check.
TEST_F(IntegrityFixture, RawDepositFrameChangesNoDeposit) {
  log_paper_records();
  std::vector<std::map<logm::Glsn, bn::BigUInt>> before;
  for (std::size_t i = 0; i < 4; ++i) before.push_back(cluster.dla(i).deposits());
  net::Writer w;
  w.u64(glsns[0]);
  w.big(bn::BigUInt(666));
  const net::Bytes frame = std::move(w).take();
  for (std::size_t i = 0; i < 4; ++i) {
    cluster.sim().send(cluster.config()->ttp, cluster.dla(i).id(), 0x22,
                       frame);
  }
  cluster.run();
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(cluster.dla(i).deposits(), before[i]) << "node " << i;
  }
  EXPECT_TRUE(integrity_passes(cluster, 0, glsns[0]));
}

// An upload replayed after its record was deleted restores nothing: not the
// fragment, not the ticket's ACL entry, not the deposit. The same holds when
// 4096 other records were deleted in between, which would push the tombstone
// out of a bounded journal of the last 4096 ids.
TEST_F(IntegrityFixture, ReplayedUploadAfterDeleteRestoresNothing) {
  cluster.user(0).configure(
      cluster.config(),
      cluster.issue_ticket("TDEL", "u0",
                           {logm::Op::Read, logm::Op::Write, logm::Op::Delete},
                           /*auditor=*/true));
  auto delete_all = [&](const std::vector<logm::Glsn>& targets) {
    std::size_t deleted = 0;
    for (const logm::Glsn glsn : targets) {
      cluster.user(0).delete_record(cluster.sim(), glsn,
                                    [&](bool ok) { deleted += ok ? 1 : 0; });
    }
    cluster.run();
    return deleted;
  };
  for (const std::size_t later_deletes : {std::size_t{0}, std::size_t{4096}}) {
    SCOPED_TRACE("later deletes " + std::to_string(later_deletes));
    const CapturedWrite write = log_one_capturing(cluster, 1);
    ASSERT_NE(write.glsn, 0u);
    ASSERT_EQ(delete_all({write.glsn}), 1u);

    std::vector<logm::Glsn> later;
    for (std::size_t i = 0; i < later_deletes; ++i) {
      cluster.user(0).log_record(
          cluster.sim(), logm::paper_table1_records()[i % 5].attrs,
          [&](std::optional<logm::Glsn> glsn) { later.push_back(*glsn); });
    }
    cluster.run();
    ASSERT_EQ(later.size(), later_deletes);
    ASSERT_EQ(delete_all(later), later_deletes);

    DlaNode& node = cluster.dla(1);
    const logm::AccessControlTable acl = node.acl();
    const std::uint64_t drops = node.replay_drops();
    cluster.sim().send(write.upload.src, write.upload.dst, kLogFragment,
                       write.upload.payload);
    cluster.run();
    EXPECT_FALSE(node.storage().contains(write.glsn));
    EXPECT_FALSE(node.acl().allowed("TDEL", logm::Op::Read, write.glsn));
    EXPECT_TRUE(node.acl() == acl);
    EXPECT_FALSE(node.deposits().contains(write.glsn));
    EXPECT_GT(node.replay_drops(), drops);
  }
}

TEST_F(IntegrityFixture, AclInconsistencyDetected) {
  log_paper_records();
  // A compromised node silently authorizes an extra glsn for a ticket.
  cluster.dla(2).acl().authorize("T1", 0x666);
  std::optional<bool> consistent;
  cluster.dla(0).on_acl_check = [&](SessionId, bool result) {
    consistent = result;
  };
  cluster.dla(0).start_acl_consistency_check(cluster.sim(), 301);
  cluster.run();
  ASSERT_TRUE(consistent.has_value());
  EXPECT_FALSE(*consistent);
}

// ------------------------------------------------ gateway result decoding --

// The gateway certifies only glsns an owner encoded. The terminal kSetResult
// of a cross query is held back and re-sent with one element replaced by a
// random value in [1, p-1], as a wrong key at one hop or a tampered chunk
// would leave it: the query fails and the gateway counts a ring reject,
// where a lax decoder would certify a glsn nobody wrote.
TEST(GatewayDecode, FabricatedElementInTheResultFailsTheQuery) {
  Cluster cluster(Cluster::Options{logm::paper_schema(), 4, 1,
                                   logm::paper_partition(), /*seed=*/42,
                                   /*auditor_users=*/true,
                                   /*certify_reports=*/true});
  for (const auto& rec : logm::paper_table1_records()) {
    cluster.user(0).log_record(cluster.sim(), rec.attrs,
                               [](std::optional<logm::Glsn>) {});
  }
  cluster.run();

  std::optional<net::Message> held;
  cluster.sim().set_drop_policy([&](const net::Message& m) {
    if (m.type != kSetResult || held) return false;
    held = m;
    return true;
  });
  std::optional<QueryOutcome> outcome;
  cluster.user(0).query(cluster.sim(), "id = 'U1' AND protocl = 'UDP'",
                        [&](QueryOutcome o) { outcome = std::move(o); });
  while (!held && cluster.sim().step()) {
  }
  ASSERT_TRUE(held.has_value());
  cluster.sim().set_drop_policy(nullptr);

  net::Reader r(held->payload);
  const SessionId session = r.u64();
  std::vector<bn::BigUInt> elements = decode_elements(r);
  r.expect_end();
  ASSERT_EQ(elements.size(), 2u);
  const bn::BigUInt& p = cluster.config()->ph_domain.p;
  crypto::ChaCha20Rng rng(7);
  elements[1] = bn::BigUInt::random_below(rng, p - bn::BigUInt(1)) +
                bn::BigUInt(1);
  net::Writer w;
  w.u64(session);
  encode_elements(w, elements);
  cluster.sim().send(held->src, held->dst, kSetResult, std::move(w).take());
  cluster.run();

  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->ok);
  EXPECT_FALSE(outcome->certified);
  EXPECT_TRUE(outcome->glsns.empty());
  std::uint64_t rejects = 0;
  for (std::size_t i = 0; i < cluster.dla_count(); ++i) {
    rejects += cluster.dla(i).set_ring_rejects();
  }
  EXPECT_EQ(rejects, 1u);
}

}  // namespace
}  // namespace dla::audit
