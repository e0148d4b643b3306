// Tests for the Du-Atallah secure scalar product over the simulated
// cluster (commodity-server model with the blind TTP).
#include <gtest/gtest.h>

#include <optional>

#include "audit/cluster.hpp"
#include "audit/metrics.hpp"
#include "logm/workload.hpp"

namespace dla::audit {
namespace {

struct ScalarFixture : ::testing::Test {
  ScalarFixture()
      : cluster(Cluster::Options{logm::paper_schema(), 3, 0,
                                 std::nullopt, /*seed=*/41, false}) {}

  std::vector<bn::BigUInt> vec(std::initializer_list<std::uint64_t> values) {
    std::vector<bn::BigUInt> out;
    for (auto v : values) out.emplace_back(v);
    return out;
  }

  std::optional<bn::BigUInt> run_product(SessionId session,
                                         std::vector<bn::BigUInt> a,
                                         std::vector<bn::BigUInt> b) {
    std::size_t length = a.size();
    cluster.dla(0).stage_vector_input(session, std::move(a));
    cluster.dla(1).stage_vector_input(session, std::move(b));
    std::optional<bn::BigUInt> result;
    cluster.dla(0).on_scalar_result = [&](SessionId, bn::BigUInt v) {
      result = std::move(v);
    };
    cluster.dla(0).start_scalar_product(
        cluster.sim(), session, cluster.config()->dla_nodes[0],
        cluster.config()->dla_nodes[1], static_cast<std::uint32_t>(length),
        {cluster.config()->dla_nodes[0]});
    cluster.run();
    return result;
  }

  Cluster cluster;
};

TEST_F(ScalarFixture, KnownDotProduct) {
  auto result = run_product(1, vec({1, 2, 3}), vec({4, 5, 6}));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, bn::BigUInt(1 * 4 + 2 * 5 + 3 * 6));
}

// A truncated copy of kScalarInit that reaches the TTP ahead of the genuine
// frame is a codec reject and nothing more: the TTP marks the session only
// once the frame decoded, so the genuine init still deals the randomness.
TEST_F(ScalarFixture, TruncatedInitCopyDoesNotSpendTheSession) {
  bool truncated = false;
  cluster.sim().set_deliver_hook([&](const net::Message& msg) {
    if (msg.type != kScalarInit || truncated) return;
    truncated = true;
    net::Message copy = msg;
    copy.payload.pop_back();
    cluster.ttp().on_message(cluster.sim(), copy);
  });
  reset_wire_reject_counters();
  auto result = run_product(9, vec({1, 2, 3}), vec({4, 5, 6}));
  cluster.sim().set_deliver_hook(nullptr);
  EXPECT_TRUE(truncated);
  EXPECT_EQ(wire_reject_counters().codec_rejects, 1u);
  reset_wire_reject_counters();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, bn::BigUInt(1 * 4 + 2 * 5 + 3 * 6));
}

TEST_F(ScalarFixture, ZeroVector) {
  auto result = run_product(2, vec({0, 0, 0}), vec({7, 8, 9}));
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->is_zero());
}

TEST_F(ScalarFixture, SingleElement) {
  auto result = run_product(3, vec({123}), vec({456}));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, bn::BigUInt(123 * 456));
}

TEST_F(ScalarFixture, RandomisedAgainstPlainDot) {
  crypto::ChaCha20Rng rng(5);
  for (SessionId session = 10; session < 16; ++session) {
    std::size_t len = 1 + rng.next_below(20);
    std::vector<bn::BigUInt> a, b;
    std::uint64_t expected = 0;
    for (std::size_t i = 0; i < len; ++i) {
      std::uint64_t av = rng.next_below(1000), bv = rng.next_below(1000);
      a.emplace_back(av);
      b.emplace_back(bv);
      expected += av * bv;
    }
    auto result = run_product(session, std::move(a), std::move(b));
    ASSERT_TRUE(result.has_value()) << "session " << session;
    EXPECT_EQ(*result, bn::BigUInt(expected));
  }
}

TEST_F(ScalarFixture, ObserverOnThirdNodeReceivesResult) {
  cluster.dla(0).stage_vector_input(20, vec({2, 3}));
  cluster.dla(1).stage_vector_input(20, vec({5, 7}));
  std::optional<bn::BigUInt> at_third;
  cluster.dla(2).on_scalar_result = [&](SessionId, bn::BigUInt v) {
    at_third = std::move(v);
  };
  cluster.dla(2).start_scalar_product(
      cluster.sim(), 20, cluster.config()->dla_nodes[0],
      cluster.config()->dla_nodes[1], 2, {cluster.config()->dla_nodes[2]});
  cluster.run();
  ASSERT_TRUE(at_third.has_value());
  EXPECT_EQ(*at_third, bn::BigUInt(2 * 5 + 3 * 7));
}

TEST_F(ScalarFixture, SiteSimilarityUseCase) {
  // Two organisations compare attack-signature histograms without showing
  // them: a large dot product signals correlated incident patterns.
  auto similar =
      run_product(30, vec({9, 0, 8, 0, 7}), vec({8, 1, 9, 0, 6}));
  auto dissimilar =
      run_product(31, vec({9, 0, 8, 0, 7}), vec({0, 9, 0, 8, 0}));
  ASSERT_TRUE(similar.has_value());
  ASSERT_TRUE(dissimilar.has_value());
  EXPECT_GT(*similar, *dissimilar);
}

TEST_F(ScalarFixture, MissingInputTreatedAsZeroes) {
  // Bob stages nothing: the product collapses to zero instead of stalling.
  cluster.dla(0).stage_vector_input(40, vec({1, 2, 3}));
  std::optional<bn::BigUInt> result;
  cluster.dla(0).on_scalar_result = [&](SessionId, bn::BigUInt v) {
    result = std::move(v);
  };
  cluster.dla(0).start_scalar_product(
      cluster.sim(), 40, cluster.config()->dla_nodes[0],
      cluster.config()->dla_nodes[1], 3, {cluster.config()->dla_nodes[0]});
  cluster.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->is_zero());
}

}  // namespace
}  // namespace dla::audit
