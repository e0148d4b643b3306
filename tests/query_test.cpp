// Tests for the auditing-criteria language: parsing, normalization to the
// paper's conjunctive form, classification, and evaluation.
#include "audit/query.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "logm/workload.hpp"
#include "workload_gen.hpp"

namespace dla::audit {
namespace {

logm::Schema schema() { return logm::paper_schema(); }

TEST(QueryParse, SimplePredicate) {
  Expr e = parse("Time > 202000", schema());
  ASSERT_EQ(e.kind, Expr::Kind::Pred);
  EXPECT_EQ(e.pred.lhs, "Time");
  EXPECT_EQ(e.pred.op, CmpOp::Gt);
  EXPECT_FALSE(e.pred.rhs_is_attr);
  EXPECT_EQ(e.pred.rhs_const.as_int(), 202000);
}

TEST(QueryParse, AllOperators) {
  for (auto [text, op] :
       std::vector<std::pair<const char*, CmpOp>>{{"<", CmpOp::Lt},
                                                  {"<=", CmpOp::Le},
                                                  {">", CmpOp::Gt},
                                                  {">=", CmpOp::Ge},
                                                  {"=", CmpOp::Eq},
                                                  {"==", CmpOp::Eq},
                                                  {"!=", CmpOp::Ne}}) {
    Expr e = parse(std::string("C1 ") + text + " 5", schema());
    EXPECT_EQ(e.pred.op, op) << text;
  }
}

TEST(QueryParse, TextLiteralsAndQuotes) {
  Expr e = parse("id = 'U1'", schema());
  EXPECT_EQ(e.pred.rhs_const.as_text(), "U1");
  Expr e2 = parse("protocl != \"UDP\"", schema());
  EXPECT_EQ(e2.pred.op, CmpOp::Ne);
}

TEST(QueryParse, AttrVsAttr) {
  Expr e = parse("C1 < Time", schema());
  EXPECT_TRUE(e.pred.rhs_is_attr);
  EXPECT_EQ(e.pred.rhs_attr, "Time");
}

TEST(QueryParse, BooleanStructureAndPrecedence) {
  // AND binds tighter than OR.
  Expr e = parse("C1 > 1 OR C1 < 5 AND id = 'U1'", schema());
  ASSERT_EQ(e.kind, Expr::Kind::Or);
  ASSERT_EQ(e.children.size(), 2u);
  EXPECT_EQ(e.children[0].kind, Expr::Kind::Pred);
  EXPECT_EQ(e.children[1].kind, Expr::Kind::And);
}

TEST(QueryParse, ParensOverridePrecedence) {
  Expr e = parse("(C1 > 1 OR C1 < 5) AND id = 'U1'", schema());
  ASSERT_EQ(e.kind, Expr::Kind::And);
  EXPECT_EQ(e.children[0].kind, Expr::Kind::Or);
}

TEST(QueryParse, KeywordsCaseInsensitive) {
  Expr e = parse("C1 > 1 and not C1 < 5 or id = 'U1'", schema());
  EXPECT_EQ(e.kind, Expr::Kind::Or);
}

TEST(QueryParse, RealLiterals) {
  Expr e = parse("C2 >= 23.45", schema());
  EXPECT_DOUBLE_EQ(e.pred.rhs_const.as_real(), 23.45);
}

TEST(QueryParse, Errors) {
  EXPECT_THROW(parse("", schema()), ParseError);
  EXPECT_THROW(parse("nope = 1", schema()), ParseError);            // unknown attr
  EXPECT_THROW(parse("Time >", schema()), ParseError);              // missing rhs
  EXPECT_THROW(parse("Time > 1 AND", schema()), ParseError);        // dangling
  EXPECT_THROW(parse("Time > 1)", schema()), ParseError);           // stray paren
  EXPECT_THROW(parse("(Time > 1", schema()), ParseError);           // unclosed
  EXPECT_THROW(parse("id > 'U1'", schema()), ParseError);           // text with >
  EXPECT_THROW(parse("id = 5", schema()), ParseError);              // type clash
  EXPECT_THROW(parse("Time = 'x'", schema()), ParseError);          // type clash
  EXPECT_THROW(parse("Time = id", schema()), ParseError);           // attr types
  EXPECT_THROW(parse("id < Tid", schema()), ParseError);            // text order
  EXPECT_THROW(parse("Time # 5", schema()), ParseError);            // bad op
  EXPECT_THROW(parse("id = 'unterminated", schema()), ParseError);
}

TEST(QueryNormalize, NotOnPredicateNegatesOperator) {
  Expr e = push_negations(parse("NOT Time > 5", schema()));
  ASSERT_EQ(e.kind, Expr::Kind::Pred);
  EXPECT_EQ(e.pred.op, CmpOp::Le);
}

TEST(QueryNormalize, DoubleNegationCancels) {
  Expr e = push_negations(parse("NOT NOT Time > 5", schema()));
  EXPECT_EQ(e.pred.op, CmpOp::Gt);
}

TEST(QueryNormalize, DeMorganAnd) {
  Expr e = push_negations(parse("NOT (Time > 5 AND id = 'U1')", schema()));
  ASSERT_EQ(e.kind, Expr::Kind::Or);
  EXPECT_EQ(e.children[0].pred.op, CmpOp::Le);
  EXPECT_EQ(e.children[1].pred.op, CmpOp::Ne);
}

TEST(QueryNormalize, DeMorganOr) {
  Expr e = push_negations(parse("NOT (Time > 5 OR id = 'U1')", schema()));
  ASSERT_EQ(e.kind, Expr::Kind::And);
  EXPECT_EQ(e.children[0].pred.op, CmpOp::Le);
  EXPECT_EQ(e.children[1].pred.op, CmpOp::Ne);
}

TEST(QueryNormalize, ConjunctiveFlattening) {
  Expr e = push_negations(
      parse("Time > 1 AND (id = 'U1' AND (C1 < 5 AND C2 > 2.0))", schema()));
  auto conjuncts = to_conjunctive(e);
  EXPECT_EQ(conjuncts.size(), 4u);
}

TEST(QueryNormalize, OrStaysOneSubquery) {
  Expr e = push_negations(parse("Time > 1 OR id = 'U1'", schema()));
  auto conjuncts = to_conjunctive(e);
  EXPECT_EQ(conjuncts.size(), 1u);
}

TEST(QueryNormalize, RejectsUnnormalizedInput) {
  Expr e = parse("NOT Time > 5", schema());
  EXPECT_THROW(to_conjunctive(e), std::invalid_argument);
}

TEST(QueryAttrs, CollectsBothSides) {
  Expr e = parse("Time > 1 AND C1 < Time AND id = 'U1'", schema());
  auto attrs = attributes_of(e);
  EXPECT_EQ(attrs, (std::set<std::string>{"Time", "C1", "id"}));
}

TEST(QueryStats, CountsAtomicAndCross) {
  Expr e = parse("Time > 1 AND C1 < Time AND id = Tid", schema());
  auto stats = predicate_stats(e);
  EXPECT_EQ(stats.atomic, 3u);
  EXPECT_EQ(stats.cross_attr, 2u);
}

TEST(QueryClassify, LocalVsCross) {
  auto partition = logm::paper_partition();
  // id and C2 both live on P1 -> local; Time (P0) with id (P1) -> cross.
  Expr local = push_negations(parse("id = 'U1' AND C2 > 10.0", schema()));
  Expr cross = push_negations(parse("Time > 1 AND id = 'U1'", schema()));
  auto sq_local = classify(to_conjunctive(local), partition);
  auto sq_cross = classify({cross}, partition);
  for (const auto& sq : sq_local) EXPECT_TRUE(sq.local());
  ASSERT_EQ(sq_cross.size(), 1u);
  EXPECT_FALSE(sq_cross[0].local());
  EXPECT_EQ(sq_cross[0].nodes, (std::set<std::size_t>{0, 1}));
}

TEST(QueryEvaluate, AgainstPaperRecords) {
  auto records = logm::paper_table1_records();
  Expr e = parse("id = 'U1' AND protocl = 'UDP'", schema());
  int matches = 0;
  for (const auto& rec : records) {
    if (evaluate(e, rec.attrs)) ++matches;
  }
  EXPECT_EQ(matches, 2);  // 139aef78 and 139aef80
}

TEST(QueryEvaluate, NotAndMixedConnectives) {
  auto records = logm::paper_table1_records();
  Expr e = parse("NOT protocl = 'UDP' OR C2 > 300.0", schema());
  std::vector<logm::Glsn> hits;
  for (const auto& rec : records) {
    if (evaluate(e, rec.attrs)) hits.push_back(rec.glsn);
  }
  // TCP rows: ..81, ..82; UDP with C2>300: ..79.
  EXPECT_EQ(hits, (std::vector<logm::Glsn>{0x139aef79, 0x139aef81,
                                           0x139aef82}));
}

TEST(QueryEvaluate, AttrVsAttr) {
  std::map<std::string, logm::Value> attrs = {
      {"Time", logm::Value(std::int64_t{100})},
      {"C1", logm::Value(std::int64_t{50})}};
  EXPECT_TRUE(evaluate(parse("C1 < Time", schema()), attrs));
  EXPECT_FALSE(evaluate(parse("C1 >= Time", schema()), attrs));
}

TEST(QueryEvaluate, MissingAttributeThrows) {
  std::map<std::string, logm::Value> attrs;
  EXPECT_THROW(evaluate(parse("Time > 1", schema()), attrs),
               std::out_of_range);
}

TEST(QueryParse, InListDesugarsToDisjunction) {
  Expr e = parse("id IN ('U1', 'U2', 'U3')", schema());
  ASSERT_EQ(e.kind, Expr::Kind::Or);
  ASSERT_EQ(e.children.size(), 3u);
  EXPECT_EQ(e.children[1].pred.op, CmpOp::Eq);
  EXPECT_EQ(e.children[1].pred.rhs_const.as_text(), "U2");
  // Single-element IN collapses to a bare predicate.
  Expr single = parse("C1 IN (5)", schema());
  EXPECT_EQ(single.kind, Expr::Kind::Pred);
}

TEST(QueryParse, BetweenDesugarsToRange) {
  Expr e = parse("C1 BETWEEN 10 AND 20", schema());
  ASSERT_EQ(e.kind, Expr::Kind::And);
  ASSERT_EQ(e.children.size(), 2u);
  EXPECT_EQ(e.children[0].pred.op, CmpOp::Ge);
  EXPECT_EQ(e.children[0].pred.rhs_const.as_int(), 10);
  EXPECT_EQ(e.children[1].pred.op, CmpOp::Le);
  EXPECT_EQ(e.children[1].pred.rhs_const.as_int(), 20);
}

TEST(QueryParse, SugarComposesWithConnectives) {
  auto records = logm::paper_table1_records();
  Expr e = parse("id IN ('U1', 'U3') AND C1 BETWEEN 20 AND 60", schema());
  std::vector<logm::Glsn> hits;
  for (const auto& rec : records) {
    if (evaluate(e, rec.attrs)) hits.push_back(rec.glsn);
  }
  // U1 rows with C1 in [20, 60]: ..78 (20), ..80 (45); U3 row ..82 (53).
  EXPECT_EQ(hits, (std::vector<logm::Glsn>{0x139aef78, 0x139aef80,
                                           0x139aef82}));
}

TEST(QueryParse, SugarErrors) {
  EXPECT_THROW(parse("id IN ()", schema()), ParseError);
  EXPECT_THROW(parse("id IN ('U1'", schema()), ParseError);
  EXPECT_THROW(parse("id IN (5)", schema()), ParseError);          // type
  EXPECT_THROW(parse("C1 BETWEEN 'a' AND 'b'", schema()), ParseError);
  EXPECT_THROW(parse("C1 BETWEEN 10 20", schema()), ParseError);   // no AND
  EXPECT_THROW(parse("id BETWEEN 'a' AND 'b'", schema()), ParseError);
}

TEST(QueryText, RoundTripThroughToText) {
  // to_text output must reparse to an equivalent expression.
  for (const char* q :
       {"Time > 1", "id = 'U1'", "C2 >= 23.45", "C1 < Time",
        "Time > 1 AND id = 'U1'", "(Time > 1 OR C1 < 5) AND id != 'U2'",
        "NOT (Time > 1 AND C1 < 5)"}) {
    Expr original = parse(q, schema());
    Expr reparsed = parse(to_text(original), schema());
    EXPECT_EQ(reparsed, original) << q;
  }
}

// A gateway ships local subqueries to their owners as to_text output, so
// every criterion the planner suites use, and text constants in either
// quote character, must read back as the same tree.
TEST(QueryText, PlannerCriteriaAndQuotesRoundTrip) {
  std::vector<std::string> criteria = testkit::planner_criteria();
  criteria.insert(criteria.end(),
                  {"id = \"U'1\"", "id = 'U\"1'",
                   "id IN (\"it's\", 'say \"hi\"')",
                   "NOT (Tid != \"'\" OR protocl = '\"')"});
  for (const std::string& q : criteria) {
    const Expr original = parse(q, schema());
    EXPECT_EQ(parse(to_text(original), schema()), original)
        << q << " -> " << to_text(original);
  }
}

// Property: evaluate(push_negations(e)) == evaluate(e) over the workload.
class NormalizationEquivalence : public ::testing::TestWithParam<const char*> {
};

TEST_P(NormalizationEquivalence, PreservesSemantics) {
  crypto::ChaCha20Rng rng(11);
  logm::WorkloadSpec spec;
  spec.records = 60;
  auto records = logm::generate_workload(spec, rng);
  Expr original = parse(GetParam(), schema());
  Expr normalized = push_negations(original);
  for (const auto& rec : records) {
    EXPECT_EQ(evaluate(original, rec.attrs), evaluate(normalized, rec.attrs))
        << GetParam() << " on glsn " << rec.glsn;
  }
  // And the conjunctive form is still equivalent.
  auto conjuncts = to_conjunctive(normalized);
  for (const auto& rec : records) {
    bool all = true;
    for (const auto& c : conjuncts) all = all && evaluate(c, rec.attrs);
    EXPECT_EQ(all, evaluate(original, rec.attrs));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Criteria, NormalizationEquivalence,
    ::testing::Values(
        "NOT (Time > 1021234100 AND C1 < 50)",
        "NOT (id = 'U1' OR NOT C2 > 500.0)",
        "NOT NOT (C1 >= 10 AND NOT protocl = 'TCP')",
        "Time > 1021234100 AND NOT (C1 < 50 OR C2 > 500.0)",
        "NOT (NOT id = 'U1' AND NOT id = 'U2')",
        "C1 < C1 OR NOT Tid != 'T1'"));

}  // namespace
}  // namespace dla::audit
