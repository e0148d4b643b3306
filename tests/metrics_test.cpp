// Tests for the Section 5 confidentiality metrics (Eqs. 10-13).
#include "audit/metrics.hpp"

#include "audit/local_query.hpp"

#include <gtest/gtest.h>

#include "logm/workload.hpp"

namespace dla::audit {
namespace {

logm::Schema schema() { return logm::paper_schema(); }
logm::AttributePartition partition() { return logm::paper_partition(); }

TEST(Metrics, StoreConfidentialityPaperExample) {
  // Table 1 record: w = 7 attributes, v = 3 undefined (C1..C3), u = 4 nodes.
  auto records = logm::paper_table1_records();
  double c = store_confidentiality(records[0], schema(), partition());
  EXPECT_DOUBLE_EQ(c, 3.0 * 4.0 / 7.0);
}

TEST(Metrics, StoreConfidentialityGrowsWithSpread) {
  // The same attributes concentrated on fewer nodes score lower.
  auto concentrated = logm::AttributePartition::explicit_sets(
      schema(), {{"Time", "id", "protocl", "Tid", "C1", "C2", "C3"}});
  auto records = logm::paper_table1_records();
  double spread = store_confidentiality(records[0], schema(), partition());
  double tight = store_confidentiality(records[0], schema(), concentrated);
  EXPECT_GT(spread, tight);
  EXPECT_DOUBLE_EQ(tight, 3.0 * 1.0 / 7.0);
}

TEST(Metrics, StoreConfidentialityZeroWithoutUndefinedAttrs) {
  logm::Schema plain({{"a", logm::ValueType::Int, false},
                      {"b", logm::ValueType::Int, false}});
  auto part = logm::AttributePartition::round_robin(plain, 2);
  logm::LogRecord rec;
  rec.glsn = 1;
  rec.attrs = {{"a", logm::Value(std::int64_t{1})},
               {"b", logm::Value(std::int64_t{2})}};
  EXPECT_DOUBLE_EQ(store_confidentiality(rec, plain, part), 0.0);
}

TEST(Metrics, StoreConfidentialityEmptyRecord) {
  logm::LogRecord rec;
  EXPECT_DOUBLE_EQ(store_confidentiality(rec, schema(), partition()), 0.0);
}

TEST(Metrics, AuditingConfidentialityAllLocal) {
  // q = 2 subqueries, s = 2 atomic predicates, t = 0 cross:
  // C = (0+2)/(2+2) = 0.5.
  auto sqs = normalize("id = 'U1' AND C2 > 10.0", schema(), partition());
  ASSERT_EQ(sqs.size(), 2u);
  EXPECT_DOUBLE_EQ(auditing_confidentiality(sqs), 0.5);
}

TEST(Metrics, AuditingConfidentialityAllCross) {
  // One subquery spanning two nodes: s = 2, t = 2, q = 1 -> 3/3 = 1.
  auto sqs = normalize("Time > 1 OR id = 'U1'", schema(), partition());
  ASSERT_EQ(sqs.size(), 1u);
  EXPECT_FALSE(sqs[0].local());
  EXPECT_DOUBLE_EQ(auditing_confidentiality(sqs), 1.0);
}

TEST(Metrics, AuditingConfidentialityMixed) {
  // SQ1 local single pred; SQ2 cross with two preds:
  // s = 3, t = 2, q = 2 -> (2+2)/(3+2) = 0.8.
  auto sqs = normalize("C1 = 5 AND (Time > 1 OR id = 'U1')", schema(),
                       partition());
  ASSERT_EQ(sqs.size(), 2u);
  EXPECT_DOUBLE_EQ(auditing_confidentiality(sqs), 0.8);
}

TEST(Metrics, AuditingConfidentialityEmpty) {
  // Eq. 11 is undefined at s + q = 0; an empty subquery list must score 0.0
  // (a no-op criterion audits nothing) and, regression: must not divide by
  // zero. Exercised via both the literal empty list and an empty vector
  // lvalue (distinct call paths before the guard existed).
  EXPECT_DOUBLE_EQ(auditing_confidentiality({}), 0.0);
  std::vector<Subquery> none;
  EXPECT_DOUBLE_EQ(auditing_confidentiality(none), 0.0);
  // And the composite metrics built on top stay finite/zero as well.
  auto records = logm::paper_table1_records();
  EXPECT_DOUBLE_EQ(
      query_confidentiality(none, records[0], schema(), partition()), 0.0);
  EXPECT_DOUBLE_EQ(
      dla_confidentiality({none}, records, schema(), partition()), 0.0);
}

TEST(Metrics, CryptoOpCountersRoundTrip) {
  reset_crypto_op_counters();
  CryptoOpCounters before = crypto_op_counters();
  EXPECT_EQ(before.modexp_count, 0u);
  EXPECT_EQ(before.modexp_batch_count, 0u);
}

TEST(Metrics, QueryConfidentialityIsProduct) {
  auto sqs = normalize("Time > 1 OR id = 'U1'", schema(), partition());
  auto records = logm::paper_table1_records();
  double cq = query_confidentiality(sqs, records[0], schema(), partition());
  EXPECT_DOUBLE_EQ(cq, auditing_confidentiality(sqs) *
                           store_confidentiality(records[0], schema(),
                                                 partition()));
}

TEST(Metrics, DlaConfidentialityIsMean) {
  auto records = logm::paper_table1_records();
  std::vector<std::vector<Subquery>> queries = {
      normalize("Time > 1 OR id = 'U1'", schema(), partition()),
      normalize("C1 = 5 AND C2 > 1.0", schema(), partition()),
  };
  double total = 0;
  for (const auto& q : queries) {
    for (const auto& rec : records) {
      total += query_confidentiality(q, rec, schema(), partition());
    }
  }
  double expected = total / (queries.size() * records.size());
  EXPECT_DOUBLE_EQ(dla_confidentiality(queries, records, schema(), partition()),
                   expected);
  EXPECT_DOUBLE_EQ(dla_confidentiality({}, records, schema(), partition()),
                   0.0);
}

TEST(Metrics, NormalizeHelperClassifies) {
  auto sqs = normalize("NOT (Time <= 1 OR id != 'U1')", schema(), partition());
  // De Morgan -> Time > 1 AND id = 'U1' -> two local subqueries.
  ASSERT_EQ(sqs.size(), 2u);
  EXPECT_TRUE(sqs[0].local());
  EXPECT_TRUE(sqs[1].local());
}

// Parameterised sweep of Eq. 10 over v (undefined attrs) and node count —
// the substance of experiment E7.
class StoreConfSweep
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(StoreConfSweep, MatchesFormula) {
  auto [v, n] = GetParam();
  const std::size_t w = 8;
  std::vector<logm::AttributeDef> defs;
  for (std::size_t i = 0; i < w; ++i) {
    defs.push_back({"a" + std::to_string(i), logm::ValueType::Int, i < v});
  }
  logm::Schema s(defs);
  auto part = logm::AttributePartition::round_robin(s, n);
  logm::LogRecord rec;
  rec.glsn = 1;
  for (std::size_t i = 0; i < w; ++i) {
    rec.attrs.emplace("a" + std::to_string(i),
                      logm::Value(static_cast<std::int64_t>(i)));
  }
  std::size_t u = std::min(n, w);  // round-robin touches min(n, w) nodes
  EXPECT_DOUBLE_EQ(store_confidentiality(rec, s, part),
                   static_cast<double>(v) * static_cast<double>(u) / w);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StoreConfSweep,
    ::testing::Values(std::pair<std::size_t, std::size_t>{0, 4},
                      std::pair<std::size_t, std::size_t>{2, 1},
                      std::pair<std::size_t, std::size_t>{4, 4},
                      std::pair<std::size_t, std::size_t>{8, 8},
                      std::pair<std::size_t, std::size_t>{3, 16}));

// ---- query-engine counters -------------------------------------------------

logm::FragmentStore paper_store() {
  logm::FragmentStore store;
  for (const logm::LogRecord& rec : logm::paper_table1_records()) {
    store.put(logm::Fragment{rec.glsn, rec.attrs});
  }
  return store;
}

TEST(Metrics, QueryEngineCountersTrackIndexHits) {
  logm::FragmentStore store = paper_store();
  const logm::Schema schema = logm::paper_schema();
  reset_query_engine_counters();

  // Pure index path: one access path, no residual rows touched.
  eval_local_indexed(parse("id = 'U1'", schema), store);
  QueryEngineCounters c = query_engine_counters();
  EXPECT_EQ(c.index_hits, 1u);
  EXPECT_EQ(c.rows_scanned, 0u);
  EXPECT_EQ(c.planner_fallbacks, 0u);
  EXPECT_EQ(c.conjuncts_short_circuited, 0u);

  // Two indexable conjuncts: both runs execute, still no row probes.
  reset_query_engine_counters();
  eval_local_indexed(parse("id = 'U1' AND C2 < 100.0", schema), store);
  c = query_engine_counters();
  EXPECT_EQ(c.index_hits, 2u);
  EXPECT_EQ(c.rows_scanned, 0u);
}

TEST(Metrics, QueryEngineCountersTrackShortCircuit) {
  logm::FragmentStore store = paper_store();
  const logm::Schema schema = logm::paper_schema();
  reset_query_engine_counters();

  // The planner runs the empty equality run first and skips the rest.
  eval_local_indexed(
      parse("id = 'NO_SUCH_USER' AND Time > 0 AND C1 < C2", schema), store);
  QueryEngineCounters c = query_engine_counters();
  EXPECT_EQ(c.index_hits, 1u);
  EXPECT_EQ(c.conjuncts_short_circuited, 2u);  // Time range + residual
  EXPECT_EQ(c.rows_scanned, 0u);
}

TEST(Metrics, QueryEngineCountersTrackFallbacks) {
  logm::FragmentStore store = paper_store();
  const logm::Schema schema = logm::paper_schema();

  // Attribute-vs-attribute predicates have no index shape: full column scan.
  reset_query_engine_counters();
  eval_local_indexed(parse("C1 < C2", schema), store);
  QueryEngineCounters c = query_engine_counters();
  EXPECT_EQ(c.planner_fallbacks, 1u);
  EXPECT_EQ(c.rows_scanned, store.size());
  EXPECT_EQ(c.index_hits, 0u);

  // Indexing disabled on the store: delegates to the naive scan baseline.
  store.set_indexing(false);
  reset_query_engine_counters();
  eval_local_indexed(parse("id = 'U1'", schema), store);
  c = query_engine_counters();
  EXPECT_EQ(c.planner_fallbacks, 1u);
  EXPECT_EQ(c.rows_scanned, store.size());
  EXPECT_EQ(c.index_hits, 0u);

  reset_query_engine_counters();
  c = query_engine_counters();
  EXPECT_EQ(c.index_hits, 0u);
  EXPECT_EQ(c.rows_scanned, 0u);
  EXPECT_EQ(c.conjuncts_short_circuited, 0u);
  EXPECT_EQ(c.planner_fallbacks, 0u);
}

// A disjunction across attributes is a union of index runs: each child
// counts its own probe, and no row is scanned.
TEST(Metrics, QueryEngineCountersTrackUnionPaths) {
  logm::FragmentStore store = paper_store();
  const logm::Schema schema = logm::paper_schema();
  reset_query_engine_counters();
  const Expr expr = parse("id = 'U1' OR C2 > 900.0", schema);
  const std::vector<logm::Glsn> hits = eval_local_indexed(expr, store);
  const QueryEngineCounters c = query_engine_counters();
  EXPECT_EQ(c.planner_fallbacks, 0u);
  EXPECT_EQ(c.rows_scanned, 0u);
  EXPECT_EQ(c.index_hits, 2u);
  EXPECT_EQ(hits, eval_local_scan(expr, store));
}

// Where an earlier child's attribute is missing on some rows, the union
// is a candidate set: the OR is rechecked on those rows only, and a row
// whose first child is Missing drops out as it does in the scan.
TEST(Metrics, QueryEngineCountersUnionRechecksOnlyCandidates) {
  std::vector<logm::LogRecord> records = logm::paper_table1_records();
  records[1].attrs["id"] = logm::Value("U1");
  records[1].attrs.erase("C2");
  records[3].attrs.erase("C2");
  records[4].attrs["C2"] = logm::Value(950.0);
  logm::FragmentStore store;
  for (const logm::LogRecord& rec : records) {
    store.put(logm::Fragment{rec.glsn, rec.attrs});
  }
  const logm::Schema schema = logm::paper_schema();

  reset_query_engine_counters();
  const Expr c2_first = parse("C2 > 900.0 OR id = 'U1'", schema);
  const std::vector<logm::Glsn> hits = eval_local_indexed(c2_first, store);
  QueryEngineCounters c = query_engine_counters();
  EXPECT_EQ(c.planner_fallbacks, 0u);
  EXPECT_EQ(c.rows_scanned, 4u);  // U1 rows 0, 1, 2 and C2 950 at row 4
  EXPECT_EQ(hits, (std::vector<logm::Glsn>{records[0].glsn, records[2].glsn,
                                           records[4].glsn}));
  EXPECT_EQ(hits, eval_local_scan(c2_first, store));

  // Every row carries id, so with id first the union is the answer.
  reset_query_engine_counters();
  const Expr id_first = parse("id = 'U1' OR C2 > 900.0", schema);
  const std::vector<logm::Glsn> id_hits = eval_local_indexed(id_first, store);
  c = query_engine_counters();
  EXPECT_EQ(c.planner_fallbacks, 0u);
  EXPECT_EQ(c.rows_scanned, 0u);
  EXPECT_EQ(id_hits, eval_local_scan(id_first, store));
}

// Residual probing only touches rows surviving the index intersection.
TEST(Metrics, QueryEngineCountersResidualRowsBounded) {
  logm::FragmentStore store = paper_store();
  const logm::Schema schema = logm::paper_schema();
  reset_query_engine_counters();
  const Expr expr = parse("id = 'U1' AND C1 < C2", schema);
  const std::vector<logm::Glsn> hits = eval_local_indexed(expr, store);
  QueryEngineCounters c = query_engine_counters();
  EXPECT_EQ(c.index_hits, 1u);
  EXPECT_LE(c.rows_scanned, store.size());
  EXPECT_GE(c.rows_scanned, hits.size());
}

}  // namespace
}  // namespace dla::audit
