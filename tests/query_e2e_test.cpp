// End-to-end confidential audit queries over the full cluster (Figure 3):
// logging through user nodes, query normalization at the gateway, local and
// cross subqueries, blind-TTP joins, secure-set conjunction, ACL filtering.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "audit/cluster.hpp"
#include "logm/workload.hpp"

namespace dla::audit {
namespace {

struct E2eFixture : ::testing::Test {
  E2eFixture()
      : cluster(Cluster::Options{logm::paper_schema(), 4, 2,
                                 logm::paper_partition(), /*seed=*/7,
                                 /*auditor_users=*/true}) {
    for (const auto& rec : logm::paper_table1_records()) {
      cluster.user(0).log_record(
          cluster.sim(), rec.attrs,
          [&](std::optional<logm::Glsn> glsn) {
            ASSERT_TRUE(glsn.has_value());
            glsns.push_back(*glsn);
          });
    }
    cluster.run();
    EXPECT_EQ(glsns.size(), 5u);
  }

  // The paper's Table 1 rows were re-assigned fresh glsns by the sequencer;
  // map row index -> actual glsn.
  logm::Glsn row(std::size_t i) const { return glsns.at(i); }

  QueryOutcome run_query(const std::string& criterion, std::size_t user = 0) {
    std::optional<QueryOutcome> outcome;
    cluster.user(user).query(cluster.sim(), criterion,
                             [&](QueryOutcome o) { outcome = std::move(o); });
    cluster.run();
    EXPECT_TRUE(outcome.has_value()) << criterion;
    return outcome.value_or(QueryOutcome{});
  }

  Cluster cluster;
  std::vector<logm::Glsn> glsns;
};

TEST_F(E2eFixture, LoggingAssignsDistinctMonotonicGlsns) {
  // Majority agreement guarantees uniqueness and monotonicity; strict
  // sequentiality is not promised under concurrent proposals (contended
  // rounds may skip values).
  std::set<logm::Glsn> unique(glsns.begin(), glsns.end());
  EXPECT_EQ(unique.size(), glsns.size());
  for (logm::Glsn g : glsns) EXPECT_GT(g, 0x139aef77u);
}

TEST_F(E2eFixture, LoggingFragmentsByPartition) {
  // P0 stores only Time; P1 id+C2; P2 Tid+C3; P3 protocl+C1 (Tables 2-5).
  for (logm::Glsn g : glsns) {
    const logm::Fragment* f0 = cluster.dla(0).store().get(g);
    ASSERT_NE(f0, nullptr);
    EXPECT_EQ(f0->attrs.size(), 1u);
    EXPECT_TRUE(f0->attrs.contains("Time"));
    const logm::Fragment* f1 = cluster.dla(1).store().get(g);
    EXPECT_TRUE(f1->attrs.contains("id"));
    EXPECT_TRUE(f1->attrs.contains("C2"));
    const logm::Fragment* f2 = cluster.dla(2).store().get(g);
    EXPECT_TRUE(f2->attrs.contains("Tid"));
    const logm::Fragment* f3 = cluster.dla(3).store().get(g);
    EXPECT_TRUE(f3->attrs.contains("protocl"));
  }
}

TEST_F(E2eFixture, LocalSingleNodeQuery) {
  // id and C2 both live on P1 -> fully local subquery.
  auto outcome = run_query("id = 'U1' AND C2 > 100.0");
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.glsns, (std::vector<logm::Glsn>{row(2)}));  // U1, 235.00
}

TEST_F(E2eFixture, CrossNodeConjunction) {
  // id (P1) AND protocl (P3): two local subqueries conjoined by the secure
  // set intersection.
  auto outcome = run_query("id = 'U1' AND protocl = 'UDP'");
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.glsns, (std::vector<logm::Glsn>{row(0), row(2)}));
}

TEST_F(E2eFixture, CrossNodeDisjunction) {
  // One cross subquery with OR across P1 and P3 -> secure set union inside
  // the subquery evaluation.
  auto outcome = run_query("id = 'U3' OR protocl = 'TCP'");
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.glsns, (std::vector<logm::Glsn>{row(3), row(4)}));
}

TEST_F(E2eFixture, ThreeWayConjunction) {
  auto outcome =
      run_query("id = 'U1' AND protocl = 'UDP' AND Tid = 'T1100265'");
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.glsns, (std::vector<logm::Glsn>{row(0)}));
}

TEST_F(E2eFixture, NotNormalizationEndToEnd) {
  auto outcome = run_query("NOT (protocl = 'UDP' OR C1 >= 50)");
  ASSERT_TRUE(outcome.ok) << outcome.error;
  // TCP and C1 < 50: row 3 (TCP, 18). Row 4 is TCP but C1 = 53.
  EXPECT_EQ(outcome.glsns, (std::vector<logm::Glsn>{row(3)}));
}

TEST_F(E2eFixture, NumericCrossAttributeJoin) {
  // C1 (P3) < C2 (P1): per-glsn blind-TTP comparison batch.
  // Rows where C1 < C2: 20<23.45 T, 34<345.11 T, 45<235 T, 18<45.02 T,
  // 53<678.75 T -> all five.
  auto outcome = run_query("C1 < C2");
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.glsns.size(), 5u);
}

TEST_F(E2eFixture, NumericCrossAttributeJoinSelective) {
  // C2 (P1) < C1 (P3) holds for no row of Table 1.
  auto outcome = run_query("C2 < C1");
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_TRUE(outcome.glsns.empty());
}

TEST_F(E2eFixture, TextCrossAttributeEquality) {
  // id (P1) = C3 (P2): never equal in Table 1 -> empty.
  auto outcome = run_query("id = C3");
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_TRUE(outcome.glsns.empty());
}

TEST_F(E2eFixture, JoinCombinedWithLocalPredicate) {
  // (C1 < C2) is a TTP join; Tid = 'T1100267' is local to P2.
  auto outcome = run_query("C1 < C2 AND Tid = 'T1100267'");
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.glsns, (std::vector<logm::Glsn>{row(2), row(4)}));
}

TEST_F(E2eFixture, EmptyResultQuery) {
  auto outcome = run_query("id = 'U9'");
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_TRUE(outcome.glsns.empty());
}

TEST_F(E2eFixture, ParseErrorSurfacesToUser) {
  auto outcome = run_query("id = ");
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.error.find("parse error"), std::string::npos);
}

TEST_F(E2eFixture, UnknownAttributeSurfacesToUser) {
  auto outcome = run_query("salary > 100");
  EXPECT_FALSE(outcome.ok);
}

TEST_F(E2eFixture, ResultsMatchCentralEvaluationOnWorkload) {
  // Property check: every query the distributed pipeline answers must match
  // a direct evaluation over the full records.
  auto records = logm::paper_table1_records();
  const char* queries[] = {
      "Time > 202000",
      "C2 >= 45.02 AND protocl = 'UDP'",
      "(id = 'U1' OR id = 'U2') AND C1 < 40",
      "NOT Tid = 'T1100265'",
      "C1 < C2 OR id = 'U3'",
      "Time >= 202335 AND Time <= 202338",
  };
  for (const char* q : queries) {
    auto outcome = run_query(q);
    ASSERT_TRUE(outcome.ok) << q << ": " << outcome.error;
    std::vector<logm::Glsn> expected;
    Expr e = parse(q, cluster.config()->schema);
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (evaluate(e, records[i].attrs)) expected.push_back(row(i));
    }
    EXPECT_EQ(outcome.glsns, expected) << q;
  }
}

TEST_F(E2eFixture, FragmentFetchWithAcl) {
  std::optional<logm::Fragment> fetched;
  cluster.user(0).fetch_fragment(cluster.sim(), 1, row(0),
                                 [&](std::optional<logm::Fragment> f) {
                                   fetched = std::move(f);
                                 });
  cluster.run();
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(fetched->attrs.at("id").as_text(), "U1");
}

TEST_F(E2eFixture, FetchRecordReassemblesFullRow) {
  std::optional<logm::LogRecord> record;
  cluster.user(0).fetch_record(cluster.sim(), row(1),
                               [&](std::optional<logm::LogRecord> r) {
                                 record = std::move(r);
                               });
  cluster.run();
  ASSERT_TRUE(record.has_value());
  logm::LogRecord expected = logm::paper_table1_records()[1];
  expected.glsn = row(1);
  EXPECT_EQ(*record, expected);
}

TEST_F(E2eFixture, FetchRecordFailsClosedOnUnknownGlsn) {
  std::optional<std::optional<logm::LogRecord>> outcome;
  cluster.user(0).fetch_record(cluster.sim(), 0xdead,
                               [&](std::optional<logm::LogRecord> r) {
                                 outcome = std::move(r);
                               });
  cluster.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->has_value());
}

TEST_F(E2eFixture, FragmentFetchDeniedForForeignTicket) {
  // user(1) never logged anything; with a non-auditor ticket it may not
  // read user(0)'s fragments.
  Ticket restricted = cluster.issue_ticket("T9", "u1", {logm::Op::Read});
  cluster.user(1).configure(cluster.config(), restricted);
  std::optional<logm::Fragment> fetched;
  bool called = false;
  cluster.user(1).fetch_fragment(cluster.sim(), 1, row(0),
                                 [&](std::optional<logm::Fragment> f) {
                                   called = true;
                                   fetched = std::move(f);
                                 });
  cluster.run();
  EXPECT_TRUE(called);
  EXPECT_FALSE(fetched.has_value());
}

TEST_F(E2eFixture, QueryResultsFilteredByAclForUserTickets) {
  // A user-scope ticket that owns nothing sees an empty result even though
  // the criterion matches records.
  Ticket restricted = cluster.issue_ticket("T9", "u1", {logm::Op::Read});
  cluster.user(1).configure(cluster.config(), restricted);
  auto outcome = run_query("protocl = 'UDP'", 1);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_TRUE(outcome.glsns.empty());
}

// Session causality: once a write or delete is acked, the same session's
// next query through the same gateway reflects it, and a repeat query
// answers the same set. The suite name dates from the gateway result cache
// these cases once guarded; the gateway now keeps no cache, so they pin that
// no query result ever predates an acked write or delete.
struct CacheE2e : E2eFixture {
  CacheE2e() { cluster.user(0).set_gateway(0); }

  // A fresh record matching kCriterion.
  static std::map<std::string, logm::Value> matching_record() {
    return {{"Time", logm::Value(std::int64_t{999})},
            {"id", logm::Value("U1")},
            {"Tid", logm::Value("T99")},
            {"protocl", logm::Value("UDP")},
            {"C1", logm::Value(std::int64_t{1})},
            {"C2", logm::Value(2.0)},
            {"C3", logm::Value("c3")}};
  }

  static constexpr const char* kCriterion = "id = 'U1' AND protocl = 'UDP'";
};

TEST_F(CacheE2e, WriteInvalidatesAndNextQueryIsFresh) {
  auto before = run_query(kCriterion);
  ASSERT_TRUE(before.ok) << before.error;
  auto repeat = run_query(kCriterion);
  EXPECT_EQ(before.glsns, repeat.glsns);

  std::optional<logm::Glsn> fresh;
  cluster.user(0).log_record(cluster.sim(), matching_record(),
                             [&](std::optional<logm::Glsn> g) { fresh = g; });
  cluster.run();
  ASSERT_TRUE(fresh.has_value());

  // The post-write query must include the new record; a stale answer would
  // return the pre-write set.
  auto after = run_query(kCriterion);
  ASSERT_TRUE(after.ok) << after.error;
  std::vector<logm::Glsn> expected = before.glsns;
  expected.push_back(*fresh);
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(after.glsns, expected);

  auto again = run_query(kCriterion);
  EXPECT_EQ(again.glsns, after.glsns);
}

TEST_F(CacheE2e, DeleteInvalidatesCachedEntry) {
  // The default cluster ticket lacks Delete; issue an auditor ticket with
  // it and log one extra matching record we are allowed to delete.
  Ticket del_ticket = cluster.issue_ticket(
      "TD", "u0", {logm::Op::Read, logm::Op::Write, logm::Op::Delete},
      /*auditor=*/true);
  cluster.user(0).configure(cluster.config(), del_ticket);
  cluster.user(0).set_gateway(0);
  std::optional<logm::Glsn> mine;
  cluster.user(0).log_record(cluster.sim(), matching_record(),
                             [&](std::optional<logm::Glsn> g) { mine = g; });
  cluster.run();
  ASSERT_TRUE(mine.has_value());

  auto before = run_query(kCriterion);
  ASSERT_TRUE(before.ok) << before.error;
  ASSERT_TRUE(std::find(before.glsns.begin(), before.glsns.end(), *mine) !=
              before.glsns.end());
  EXPECT_EQ(run_query(kCriterion).glsns, before.glsns);

  bool deleted = false;
  cluster.user(0).delete_record(cluster.sim(), *mine,
                                [&](bool ok) { deleted = ok; });
  cluster.run();
  ASSERT_TRUE(deleted);

  // The next query must not serve the deleted glsn.
  auto after = run_query(kCriterion);
  ASSERT_TRUE(after.ok) << after.error;
  std::vector<logm::Glsn> expected = before.glsns;
  expected.erase(std::remove(expected.begin(), expected.end(), *mine),
                 expected.end());
  EXPECT_EQ(after.glsns, expected);
}

TEST_F(E2eFixture, WriteRefusedWithoutWriteTicket) {
  Ticket read_only = cluster.issue_ticket("T8", "u1", {logm::Op::Read});
  cluster.user(1).configure(cluster.config(), read_only);
  std::optional<std::optional<logm::Glsn>> result;
  cluster.user(1).log_record(cluster.sim(),
                             logm::paper_table1_records()[0].attrs,
                             [&](std::optional<logm::Glsn> glsn) {
                               result = glsn;
                             });
  cluster.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->has_value());
}

// A Write-ticket holder can put any value into a fragment; the owner must
// refuse values that break the schema's column kinds. Text in the numeric
// C2 column would make the next ordered C2 query throw out of the node, and
// a NaN would land in another value's postings run and answer equality
// probes for it.
struct SchemaViolationE2e : E2eFixture {
  // Logs Table 1's first row with C2 replaced; the outer optional is set
  // once the write settles, the inner one holds the glsn when acked.
  std::optional<std::optional<logm::Glsn>> log_with_c2(logm::Value c2) {
    auto attrs = logm::paper_table1_records()[0].attrs;
    attrs["C2"] = std::move(c2);
    std::optional<std::optional<logm::Glsn>> result;
    cluster.user(0).log_record(
        cluster.sim(), attrs,
        [&](std::optional<logm::Glsn> glsn) { result = glsn; });
    cluster.run();
    return result;
  }

  // C2 range and equality queries still answer Table 1's rows exactly.
  void expect_c2_queries_exact() {
    auto range = run_query("C2 > 100.0");
    ASSERT_TRUE(range.ok) << range.error;
    EXPECT_EQ(range.glsns, (std::vector<logm::Glsn>{row(1), row(2), row(4)}));
    const char* values[] = {"23.45", "345.11", "235.0", "45.02", "678.75"};
    for (std::size_t i = 0; i < 5; ++i) {
      auto eq = run_query(std::string("C2 = ") + values[i]);
      ASSERT_TRUE(eq.ok) << eq.error;
      EXPECT_EQ(eq.glsns, (std::vector<logm::Glsn>{row(i)})) << values[i];
    }
  }
};

TEST_F(SchemaViolationE2e, TextInNumericColumnIsRefused) {
  const auto result = log_with_c2(logm::Value("not-a-number"));
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->has_value());
  expect_c2_queries_exact();
}

TEST_F(SchemaViolationE2e, NanRealIsRefused) {
  const auto result =
      log_with_c2(logm::Value(std::numeric_limits<double>::quiet_NaN()));
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->has_value());
  expect_c2_queries_exact();
}

TEST_F(E2eFixture, QueryRefusedWithoutReadTicket) {
  Ticket write_only = cluster.issue_ticket("T7", "u1", {logm::Op::Write});
  cluster.user(1).configure(cluster.config(), write_only);
  auto outcome = run_query("protocl = 'UDP'", 1);
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error, "ticket rejected");
}

TEST_F(E2eFixture, ConcurrentLoggingFromMultipleUsersAllCompletes) {
  // Regression: gateway-side request correlation must not collide when
  // different users reuse the same per-user request ids concurrently.
  Ticket second = cluster.issue_ticket("T2", "u1",
                                       {logm::Op::Read, logm::Op::Write},
                                       /*auditor=*/true);
  cluster.user(1).configure(cluster.config(), second);
  std::vector<logm::Glsn> assigned;
  auto records = logm::paper_table1_records();
  for (int round = 0; round < 4; ++round) {
    for (std::size_t u = 0; u < 2; ++u) {
      cluster.user(u).log_record(cluster.sim(), records[round].attrs,
                                 [&](std::optional<logm::Glsn> g) {
                                   ASSERT_TRUE(g.has_value());
                                   assigned.push_back(*g);
                                 });
    }
  }
  cluster.run();
  ASSERT_EQ(assigned.size(), 8u);
  std::set<logm::Glsn> unique(assigned.begin(), assigned.end());
  EXPECT_EQ(unique.size(), 8u);  // all distinct
}

TEST_F(E2eFixture, InformationFlowStaysInsideTheCluster) {
  // The paper's query-processing rule: "only the final results ... would be
  // made available to nodes that are authorized to receive the results."
  // For a cross-node query, assert from the per-link traffic that (a) the
  // user hears back from the gateway exactly once and from nobody else,
  // and (b) the TTP receives no traffic at all when no join is involved.
  cluster.sim().reset_stats();
  std::optional<QueryOutcome> outcome;
  cluster.user(0).query(cluster.sim(), "id = 'U1' AND protocl = 'UDP'",
                        [&](QueryOutcome o) { outcome = std::move(o); });
  cluster.run();
  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->ok);

  net::NodeId user_id = cluster.user(0).id();
  net::NodeId ttp_id = cluster.config()->ttp;
  std::uint64_t to_user = 0, user_senders = 0, to_ttp = 0;
  for (const auto& [link, stats] : cluster.sim().stats().per_link) {
    if (link.second == user_id) {
      to_user += stats.messages;
      ++user_senders;
    }
    if (link.second == ttp_id) to_ttp += stats.messages;
  }
  EXPECT_EQ(to_user, 1u);       // exactly the final result
  EXPECT_EQ(user_senders, 1u);  // from the gateway only
  EXPECT_EQ(to_ttp, 0u);        // no TTP involvement without a join
}

TEST_F(E2eFixture, ConcurrentQueriesFromMultipleUsersAllAnswer) {
  // Several queries in flight at once, via different gateways: per-qid
  // state on the gateways and rid-scoped sessions must not interfere.
  Ticket second = cluster.issue_ticket("TB", "u1", {logm::Op::Read},
                                       /*auditor=*/true);
  cluster.user(1).configure(cluster.config(), second);
  struct Expected {
    const char* criterion;
    std::vector<std::size_t> rows;
  };
  std::vector<Expected> cases = {
      {"id = 'U1' AND protocl = 'UDP'", {0, 2}},
      {"id = 'U3' OR protocl = 'TCP'", {3, 4}},
      {"Tid = 'T1100267'", {2, 4}},
      {"C1 < C2 AND Tid = 'T1100267'", {2, 4}},
      {"C2 > 300.0", {1, 4}},
      {"NOT protocl = 'UDP'", {3, 4}},
  };
  std::map<std::string, std::optional<QueryOutcome>> outcomes;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    cluster.user(i % 2).query(cluster.sim(), cases[i].criterion,
                              [&, i](QueryOutcome o) {
                                outcomes[cases[i].criterion] = std::move(o);
                              });
  }
  cluster.run();
  for (const auto& c : cases) {
    auto& outcome = outcomes[c.criterion];
    ASSERT_TRUE(outcome.has_value()) << c.criterion;
    ASSERT_TRUE(outcome->ok) << c.criterion << ": " << outcome->error;
    std::vector<logm::Glsn> expected;
    for (std::size_t r : c.rows) expected.push_back(row(r));
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(outcome->glsns, expected) << c.criterion;
  }
}

TEST_F(E2eFixture, GlsnSequencerSurvivesLeaderCrash) {
  // Crash P0 (the default leader); the gateway times out and retries with
  // the next node, so logging still completes.
  cluster.sim().crash(cluster.config()->dla_nodes[0]);
  std::optional<std::optional<logm::Glsn>> result;
  cluster.user(0).log_record(cluster.sim(),
                             logm::paper_table1_records()[0].attrs,
                             [&](std::optional<logm::Glsn> glsn) {
                               result = glsn;
                             });
  cluster.run();
  // The user picked a gateway round-robin; if the gateway itself was P0 the
  // request dies (user would retry in a real deployment). Accept either a
  // successful assignment or no callback, but require no wrong result.
  if (result.has_value() && result->has_value()) {
    EXPECT_GT(result->value(), glsns.back());
  }
}

}  // namespace
}  // namespace dla::audit
