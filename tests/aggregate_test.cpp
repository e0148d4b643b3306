// End-to-end tests for confidential aggregate queries (the abstract's
// "number of transactions, total of volumes ... without having to access
// the full log data").
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <optional>
#include <tuple>
#include <vector>

#include "audit/cluster.hpp"
#include "logm/workload.hpp"

namespace dla::audit {
namespace {

struct AggregateFixture : ::testing::Test {
  AggregateFixture()
      : cluster(Cluster::Options{logm::paper_schema(), 4, 2,
                                 logm::paper_partition(), /*seed=*/21,
                                 /*auditor_users=*/true}) {
    for (const auto& rec : logm::paper_table1_records()) {
      records.push_back(rec);
      cluster.user(0).log_record(cluster.sim(), rec.attrs,
                                 [&](std::optional<logm::Glsn> g) {
                                   ASSERT_TRUE(g.has_value());
                                 });
    }
    cluster.run();
  }

  AggregateOutcome run(const std::string& criterion, AggOp op,
                       const std::string& attr, std::size_t user = 0) {
    std::optional<AggregateOutcome> outcome;
    cluster.user(user).aggregate_query(
        cluster.sim(), criterion, op, attr,
        [&](AggregateOutcome o) { outcome = std::move(o); });
    cluster.run();
    EXPECT_TRUE(outcome.has_value());
    return outcome.value_or(AggregateOutcome{});
  }

  Cluster cluster;
  std::vector<logm::LogRecord> records;
};

TEST_F(AggregateFixture, CountMatchesDirectEvaluation) {
  auto outcome = run("protocl = 'UDP'", AggOp::Count, "");
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_DOUBLE_EQ(outcome.value, 3.0);
  EXPECT_EQ(outcome.count, 3u);
}

TEST_F(AggregateFixture, CountOverCrossNodeCriterion) {
  auto outcome = run("id = 'U1' AND protocl = 'UDP'", AggOp::Count, "");
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_DOUBLE_EQ(outcome.value, 2.0);
}

TEST_F(AggregateFixture, SumOfVolumes) {
  // "total of volumes": sum of C2 over UDP rows = 23.45 + 345.11 + 235.00.
  auto outcome = run("protocl = 'UDP'", AggOp::Sum, "C2");
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_NEAR(outcome.value, 603.56, 1e-9);
  EXPECT_EQ(outcome.count, 3u);
}

TEST_F(AggregateFixture, MaxAndMin) {
  auto max_out = run("Time > 0", AggOp::Max, "C2");
  ASSERT_TRUE(max_out.ok);
  EXPECT_NEAR(max_out.value, 678.75, 1e-9);
  auto min_out = run("Time > 0", AggOp::Min, "C1");
  ASSERT_TRUE(min_out.ok);
  EXPECT_NEAR(min_out.value, 18.0, 1e-9);
}

TEST_F(AggregateFixture, AverageOverSubset) {
  // Avg C1 over Tid = 'T1100265': (20 + 34 + 18) / 3 = 24.
  auto outcome = run("Tid = 'T1100265'", AggOp::Avg, "C1");
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_NEAR(outcome.value, 24.0, 1e-9);
  EXPECT_EQ(outcome.count, 3u);
}

TEST_F(AggregateFixture, SumOverEmptyMatchIsZero) {
  auto outcome = run("id = 'U9'", AggOp::Sum, "C2");
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_DOUBLE_EQ(outcome.value, 0.0);
  EXPECT_EQ(outcome.count, 0u);
}

TEST_F(AggregateFixture, MaxOverEmptyMatchReportsNoValues) {
  auto outcome = run("id = 'U9'", AggOp::Max, "C2");
  EXPECT_FALSE(outcome.ok);
}

TEST_F(AggregateFixture, RejectsTextAttribute) {
  auto outcome = run("Time > 0", AggOp::Sum, "id");
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.error.find("not numeric"), std::string::npos);
}

TEST_F(AggregateFixture, RejectsUnknownAttribute) {
  auto outcome = run("Time > 0", AggOp::Sum, "volume");
  EXPECT_FALSE(outcome.ok);
}

TEST_F(AggregateFixture, ParseErrorPropagates) {
  auto outcome = run("Time >", AggOp::Count, "");
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.error.find("parse error"), std::string::npos);
}

TEST_F(AggregateFixture, AclFiltersAggregatesForUserTickets) {
  // A user-scope ticket that owns nothing aggregates over nothing.
  Ticket restricted = cluster.issue_ticket("T9", "u1", {logm::Op::Read});
  cluster.user(1).configure(cluster.config(), restricted);
  auto outcome = run("Time > 0", AggOp::Count, "", 1);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_DOUBLE_EQ(outcome.value, 0.0);
}

TEST_F(AggregateFixture, SecretCountingShortcutLeavesNoResultSets) {
  // Auditor COUNT over one local subquery (id and C2 both on P1): the
  // owner reports only the count — no glsn set is stored at the owner and
  // none travels to the gateway.
  auto count_messages = [&](std::size_t gateway) {
    cluster.user(0).set_gateway(gateway);
    cluster.sim().reset_stats();
    auto outcome = run("id = 'U1' AND C2 > 1.0", AggOp::Count, "");
    EXPECT_TRUE(outcome.ok) << outcome.error;
    EXPECT_DOUBLE_EQ(outcome.value, 2.0);
    for (std::size_t i = 0; i < cluster.dla_count(); ++i) {
      EXPECT_EQ(cluster.dla(i).session_residue(), 0u) << "P" << i;
    }
    return cluster.sim().stats().messages_sent;
  };
  // P0 owns neither attribute: query, kCombineExec, kSubqueryDone, result.
  EXPECT_EQ(count_messages(0), 4u);
  // P1 is the owner: it counts in place, so only query and result travel.
  EXPECT_EQ(count_messages(1), 2u);
}

TEST_F(AggregateFixture, SecretCountingMatchesRegularCountSemantics) {
  for (const char* q : {"protocl = 'UDP'", "Time > 202000", "C1 BETWEEN 20 AND 50"}) {
    auto outcome = run(q, AggOp::Count, "");
    ASSERT_TRUE(outcome.ok) << q;
    // Cross-check against the glsn-set query path.
    std::optional<QueryOutcome> full;
    cluster.user(0).query(cluster.sim(), q,
                          [&](QueryOutcome o) { full = std::move(o); });
    cluster.run();
    ASSERT_TRUE(full.has_value());
    EXPECT_DOUBLE_EQ(outcome.value, static_cast<double>(full->glsns.size()))
        << q;
  }
}

TEST_F(AggregateFixture, AggregateMatchesWorkloadGroundTruth) {
  // Property-style check over a bigger generated workload.
  crypto::ChaCha20Rng rng(33);
  logm::WorkloadSpec spec;
  spec.records = 80;
  auto work = logm::generate_workload(spec, rng);
  for (const auto& rec : work) {
    cluster.user(0).log_record(cluster.sim(), rec.attrs,
                               [](std::optional<logm::Glsn>) {});
  }
  cluster.run();
  double expected_sum = 0;
  std::size_t expected_count = 0;
  for (const auto& rec : records) {  // paper rows
    if (rec.attrs.at("protocl").as_text() == "TCP") {
      expected_sum += rec.attrs.at("C2").as_real();
      ++expected_count;
    }
  }
  for (const auto& rec : work) {
    if (rec.attrs.at("protocl").as_text() == "TCP") {
      expected_sum += rec.attrs.at("C2").as_real();
      ++expected_count;
    }
  }
  auto outcome = run("protocl = 'TCP'", AggOp::Sum, "C2");
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_NEAR(outcome.value, expected_sum, 1e-6);
  EXPECT_EQ(outcome.count, expected_count);
}

// The owner reads one cell per glsn, from its memtable or a sealed
// segment: a cluster on segment engines, with Table 1 sealed two rows to a
// segment, answers every aggregate exactly as the in-memory cluster does.
TEST(AggregateEngines, SegmentBackendMatchesMemory) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("dla_aggregate_test_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  auto options = [&](bool durable) {
    Cluster::Options opts{logm::paper_schema(), 4, 1, logm::paper_partition(),
                          /*seed=*/21, /*auditor_users=*/true};
    if (durable) {
      opts.storage_dir = dir.string();
      opts.storage.memtable_max_records = 2;
      opts.storage.sync_mode = logm::SegmentEngine::SyncMode::OnSeal;
    }
    return opts;
  };
  const std::vector<std::tuple<std::string, AggOp, std::string>> aggregates =
      {{"protocl = 'UDP'", AggOp::Sum, "C2"},
       {"Time > 0", AggOp::Max, "C2"},
       {"Time > 0", AggOp::Min, "C1"},
       {"Tid = 'T1100265'", AggOp::Avg, "C1"},
       {"id = 'U1' OR C2 > 300.0", AggOp::Sum, "C2"},
       {"id = 'U9'", AggOp::Max, "C2"}};
  std::vector<AggregateOutcome> answers[2];
  for (bool durable : {false, true}) {
    Cluster cluster(options(durable));
    for (const auto& rec : logm::paper_table1_records()) {
      cluster.user(0).log_record(cluster.sim(), rec.attrs,
                                 [](std::optional<logm::Glsn> g) {
                                   ASSERT_TRUE(g.has_value());
                                 });
      cluster.run();
    }
    for (const auto& [criterion, op, attr] : aggregates) {
      std::optional<AggregateOutcome> outcome;
      cluster.user(0).aggregate_query(
          cluster.sim(), criterion, op, attr,
          [&](AggregateOutcome o) { outcome = std::move(o); });
      cluster.run();
      ASSERT_TRUE(outcome.has_value()) << criterion;
      answers[durable].push_back(*outcome);
    }
  }
  fs::remove_all(dir);
  for (std::size_t i = 0; i < aggregates.size(); ++i) {
    const std::string& criterion = std::get<0>(aggregates[i]);
    EXPECT_EQ(answers[1][i].ok, answers[0][i].ok) << criterion;
    EXPECT_EQ(answers[1][i].value, answers[0][i].value) << criterion;
    EXPECT_EQ(answers[1][i].count, answers[0][i].count) << criterion;
  }
  EXPECT_NEAR(answers[0][0].value, 603.56, 1e-9);
  EXPECT_EQ(answers[0][4].count, 4u);  // U1 twice, 345.11 and 678.75
}

}  // namespace
}  // namespace dla::audit
