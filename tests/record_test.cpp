// Tests for schemas, records, and attribute-partition fragmentation
// (Tables 1-5 of the paper).
#include "logm/record.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "logm/workload.hpp"

namespace dla::logm {
namespace {

TEST(Schema, IndexAndLookup) {
  Schema s = paper_schema();
  EXPECT_EQ(s.size(), 7u);
  EXPECT_TRUE(s.contains("Time"));
  EXPECT_TRUE(s.contains("C3"));
  EXPECT_FALSE(s.contains("nope"));
  EXPECT_EQ(s.at("C2").type, ValueType::Real);
  EXPECT_TRUE(s.at("C1").undefined);
  EXPECT_FALSE(s.at("id").undefined);
  EXPECT_THROW(s.at("nope"), std::out_of_range);
}

TEST(Schema, UndefinedCountMatchesPaperExample) {
  EXPECT_EQ(paper_schema().undefined_count(), 3u);  // C1, C2, C3
}

TEST(Schema, RejectsDuplicateAttributes) {
  EXPECT_THROW(Schema({{"a", ValueType::Int, false},
                       {"a", ValueType::Text, false}}),
               std::invalid_argument);
}

// The storage boundary's type check: Int and Real share numeric columns;
// unknown attributes, text/numeric mismatches and NaN reals are refused.
TEST(Schema, AdmitsOnlyValuesOfTheColumnKind) {
  const Schema s = paper_schema();
  EXPECT_TRUE(s.admits({}));
  EXPECT_TRUE(s.admits({{"id", Value("U1")},
                        {"C1", Value(2.0)},
                        {"C2", Value(std::int64_t{3})}}));
  EXPECT_FALSE(s.admits({{"nope", Value(std::int64_t{1})}}));
  EXPECT_FALSE(s.admits({{"C2", Value("not-a-number")}}));
  EXPECT_FALSE(s.admits({{"id", Value(std::int64_t{7})}}));
  EXPECT_FALSE(s.admits({{"C2", Value(std::nan(""))}}));
}

TEST(LogRecord, CanonicalIsInsertionOrderIndependent) {
  LogRecord a;
  a.glsn = 5;
  a.attrs.emplace("z", Value(std::int64_t{1}));
  a.attrs.emplace("a", Value("x"));
  LogRecord b;
  b.glsn = 5;
  b.attrs.emplace("a", Value("x"));
  b.attrs.emplace("z", Value(std::int64_t{1}));
  EXPECT_EQ(a.canonical(), b.canonical());
}

TEST(LogRecord, CodecRoundTrip) {
  LogRecord rec = paper_table1_records()[0];
  net::Writer w;
  rec.encode(w);
  net::Reader r(w.bytes());
  EXPECT_EQ(LogRecord::decode(r), rec);
}

TEST(Partition, RoundRobinCoversEverything) {
  Schema s = paper_schema();
  auto p = AttributePartition::round_robin(s, 3);
  EXPECT_EQ(p.node_count(), 3u);
  std::size_t total = 0;
  for (std::size_t i = 0; i < 3; ++i) total += p.attributes_of(i).size();
  EXPECT_EQ(total, s.size());
  for (const auto& attr : s.attributes()) {
    EXPECT_LT(p.node_for(attr.name), 3u);
  }
}

TEST(Partition, ExplicitSetsValidated) {
  Schema s = paper_schema();
  // Unknown attribute.
  EXPECT_THROW(AttributePartition::explicit_sets(s, {{"nope"}}),
               std::invalid_argument);
  // Double assignment.
  EXPECT_THROW(AttributePartition::explicit_sets(
                   s, {{"Time"}, {"Time", "id", "protocl", "Tid", "C1", "C2",
                                  "C3"}}),
               std::invalid_argument);
  // Missing coverage.
  EXPECT_THROW(AttributePartition::explicit_sets(s, {{"Time"}}),
               std::invalid_argument);
  // Zero nodes.
  EXPECT_THROW(AttributePartition::explicit_sets(s, {}),
               std::invalid_argument);
  EXPECT_THROW(AttributePartition::round_robin(s, 0), std::invalid_argument);
}

TEST(Partition, PaperPartitionMatchesTables2to5) {
  auto p = paper_partition();
  ASSERT_EQ(p.node_count(), 4u);
  EXPECT_EQ(p.node_for("Time"), 0u);   // Table 2
  EXPECT_EQ(p.node_for("id"), 1u);     // Table 3
  EXPECT_EQ(p.node_for("C2"), 1u);
  EXPECT_EQ(p.node_for("Tid"), 2u);    // Table 4
  EXPECT_EQ(p.node_for("C3"), 2u);
  EXPECT_EQ(p.node_for("protocl"), 3u);  // Table 5
  EXPECT_EQ(p.node_for("C1"), 3u);
  EXPECT_THROW(p.node_for("nope"), std::out_of_range);
}

TEST(Partition, FragmentationSplitsAndPreservesGlsn) {
  auto records = paper_table1_records();
  auto p = paper_partition();
  auto frags = p.fragment(records[0]);
  ASSERT_EQ(frags.size(), 4u);
  for (const auto& f : frags) EXPECT_EQ(f.glsn, records[0].glsn);
  // No node holds the whole record.
  for (const auto& f : frags) EXPECT_LT(f.attrs.size(), records[0].attrs.size());
  // Every attribute lands exactly once.
  std::size_t total = 0;
  for (const auto& f : frags) total += f.attrs.size();
  EXPECT_EQ(total, records[0].attrs.size());
  // Spot-check Table 3's fragment: id + C2 on P1.
  EXPECT_EQ(frags[1].attrs.size(), 2u);
  EXPECT_EQ(frags[1].attrs.at("id").as_text(), "U1");
  EXPECT_DOUBLE_EQ(frags[1].attrs.at("C2").as_real(), 23.45);
}

TEST(Partition, FragmentsReassembleToOriginal) {
  auto records = paper_table1_records();
  auto p = paper_partition();
  for (const auto& rec : records) {
    auto frags = p.fragment(rec);
    LogRecord rebuilt;
    rebuilt.glsn = frags[0].glsn;
    for (const auto& f : frags) {
      for (const auto& [name, value] : f.attrs) rebuilt.attrs.emplace(name, value);
    }
    EXPECT_EQ(rebuilt, rec);
  }
}

TEST(Partition, CoveringNodesCountsOnlyUsedNodes) {
  auto p = paper_partition();
  LogRecord rec;
  rec.glsn = 1;
  rec.attrs = {{"Time", Value(std::int64_t{1})}};
  EXPECT_EQ(p.covering_nodes(rec), 1u);
  rec.attrs.emplace("id", Value("U1"));
  EXPECT_EQ(p.covering_nodes(rec), 2u);
  EXPECT_EQ(p.covering_nodes(paper_table1_records()[0]), 4u);
}

TEST(Workload, GeneratorIsDeterministicAndWellFormed) {
  crypto::ChaCha20Rng rng1(7), rng2(7);
  WorkloadSpec spec;
  spec.records = 50;
  auto a = generate_workload(spec, rng1);
  auto b = generate_workload(spec, rng2);
  ASSERT_EQ(a.size(), 50u);
  EXPECT_EQ(a[0].glsn, 0x139aef78u);
  EXPECT_EQ(a[49].glsn, 0x139aef78u + 49);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]);
    EXPECT_EQ(a[i].attrs.size(), 7u);
  }
  // Times are strictly increasing.
  for (std::size_t i = 1; i < a.size(); ++i) {
    EXPECT_GT(a[i].attrs.at("Time").as_int(), a[i - 1].attrs.at("Time").as_int());
  }
}

TEST(Workload, TransactionsGroupByTid) {
  crypto::ChaCha20Rng rng(9);
  WorkloadSpec spec;
  spec.records = 100;
  spec.transactions = 5;
  auto records = generate_workload(spec, rng);
  auto txns = group_into_transactions(records);
  EXPECT_LE(txns.size(), 5u);
  std::size_t events = 0;
  for (const auto& txn : txns) {
    events += txn.events.size();
    EXPECT_GT(txn.tsn, 0u);
    // All events of one transaction share the Tid.
    const std::string& tid =
        txn.events[0].record.attrs.at("Tid").as_text();
    for (const auto& ev : txn.events) {
      EXPECT_EQ(ev.record.attrs.at("Tid").as_text(), tid);
    }
  }
  EXPECT_EQ(events, records.size());
}

}  // namespace
}  // namespace dla::logm
