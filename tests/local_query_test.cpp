// Differential and unit tests for the compiled local query engine
// (audit/local_query.hpp) and the FragmentStore columnar mirror.
//
// The engine carries a strict equivalence obligation: eval_local_indexed
// must return bit-identical glsn sets to the naive scan (select + evaluate,
// missing attribute => non-match) on every workload. The differential
// sweeps randomized generate_workload seeds over full, partitioned and
// attribute-sparse stores.
#include "audit/local_query.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "audit/metrics.hpp"
#include "audit/query.hpp"
#include "crypto/rng.hpp"
#include "logm/store.hpp"
#include "logm/workload.hpp"
#include "workload_gen.hpp"

namespace dla::audit {
namespace {

using logm::FragmentStore;
using logm::Glsn;
using logm::LogRecord;

// Record/store builders are shared with the bench and traffic drivers
// (tests/workload_gen.hpp) so every consumer sees identical seeded streams.
std::vector<LogRecord> make_records(std::uint64_t seed, std::size_t count) {
  return testkit::make_records(seed, count);
}

FragmentStore full_store(const std::vector<LogRecord>& records) {
  return testkit::make_store(records);
}

// Drops attributes pseudo-randomly so the missing-attribute (tri-state)
// semantics is exercised: roughly one attribute in six goes absent.
FragmentStore sparse_store(const std::vector<LogRecord>& records,
                           std::uint64_t seed) {
  crypto::ChaCha20Rng rng(seed);
  FragmentStore store;
  for (const LogRecord& rec : records) {
    logm::Fragment frag{rec.glsn, {}};
    for (const auto& [name, value] : rec.attrs) {
      if (rng.next_u64() % 6 != 0) frag.attrs.emplace(name, value);
    }
    store.put(std::move(frag));
  }
  return store;
}

void expect_equivalent(const FragmentStore& store, const std::string& where) {
  const logm::Schema schema = logm::paper_schema();
  for (const std::string& text : testkit::planner_criteria()) {
    const Expr expr = parse(text, schema);
    EXPECT_EQ(eval_local_indexed(expr, store), eval_local_scan(expr, store))
        << where << " diverged on: " << text;
  }
}

TEST(LocalQueryDifferential, FullRecordsAcrossSeeds) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    FragmentStore store = full_store(make_records(seed, 300));
    expect_equivalent(store, "full/seed " + std::to_string(seed));
  }
}

TEST(LocalQueryDifferential, PartitionedFragmentsAcrossSeeds) {
  const logm::AttributePartition partition = logm::paper_partition();
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    std::vector<FragmentStore> stores(partition.node_count());
    for (const LogRecord& rec : make_records(seed, 200)) {
      std::vector<logm::Fragment> frags = partition.fragment(rec);
      for (std::size_t node = 0; node < frags.size(); ++node) {
        stores[node].put(std::move(frags[node]));
      }
    }
    for (std::size_t n = 0; n < stores.size(); ++n) {
      expect_equivalent(stores[n], "partition/seed " + std::to_string(seed) +
                                       "/node " + std::to_string(n));
    }
  }
}

TEST(LocalQueryDifferential, SparseRecordsExerciseMissingSemantics) {
  for (std::uint64_t seed : {21u, 22u, 23u, 24u}) {
    FragmentStore store = sparse_store(make_records(seed, 250), seed * 7);
    expect_equivalent(store, "sparse/seed " + std::to_string(seed));
  }
}

TEST(LocalQueryDifferential, SurvivesErasesAndOverwrites) {
  std::vector<LogRecord> records = make_records(31, 200);
  FragmentStore store = full_store(records);
  crypto::ChaCha20Rng rng(31 * 13);
  // Erase a third, overwrite a third with mutated attributes.
  for (const LogRecord& rec : records) {
    switch (rng.next_u64() % 3) {
      case 0:
        store.erase(rec.glsn);
        break;
      case 1: {
        logm::Fragment frag{rec.glsn, rec.attrs};
        frag.attrs["C2"] = logm::Value(static_cast<double>(rng.next_u64() % 1000));
        frag.attrs.erase("Tid");
        store.put(std::move(frag));
        break;
      }
      default:
        break;
    }
  }
  expect_equivalent(store, "mutated");
}

TEST(LocalQueryDifferential, IndexingDisabledDelegatesToScan) {
  FragmentStore store = full_store(make_records(41, 100));
  store.set_indexing(false);
  expect_equivalent(store, "indexing-off");
  store.set_indexing(true);  // rebuild, then differential again
  expect_equivalent(store, "indexing-rebuilt");
}

// Ordered text-vs-numeric comparison must throw from both paths (the parser
// forbids the shape, but hand-built expressions reach the engine directly).
TEST(LocalQuery, OrderedTypeMismatchThrowsLikeScan) {
  FragmentStore store = full_store(make_records(51, 20));
  Expr expr = Expr::make_pred(
      Predicate{"id", CmpOp::Lt, false, "", logm::Value(std::int64_t{5})});
  EXPECT_THROW(eval_local_indexed(expr, store), std::invalid_argument);
  EXPECT_THROW(eval_local_scan(expr, store), std::invalid_argument);
}

// ---- columnar mirror unit coverage ----------------------------------------

TEST(FragmentStoreColumnar, MirrorTracksPutEraseOverwrite) {
  FragmentStore store;
  store.put({10, {{"id", logm::Value("U1")}, {"C1", logm::Value(std::int64_t{5})}}});
  store.put({20, {{"id", logm::Value("U2")}}});
  store.put({15, {{"id", logm::Value("U1")}, {"C1", logm::Value(std::int64_t{9})}}});

  ASSERT_EQ(store.row_count(), 3u);
  EXPECT_EQ(store.row_glsns(), (std::vector<Glsn>{10, 15, 20}));
  ASSERT_NE(store.column("id"), nullptr);
  EXPECT_EQ(store.column("id")->present, 3u);
  ASSERT_NE(store.column("C1"), nullptr);
  EXPECT_EQ(store.column("C1")->present, 2u);
  EXPECT_EQ(store.column("C1")->cells[2], nullptr);  // glsn 20 lacks C1

  const logm::AttributeIndex* idx = store.attr_index("id");
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->rows(), 3u);
  EXPECT_EQ(idx->distinct(), 2u);
  const std::vector<Glsn>* u1 = idx->equal(logm::Value("U1"));
  ASSERT_NE(u1, nullptr);
  EXPECT_EQ(*u1, (std::vector<Glsn>{10, 15}));

  // Overwrite drops the old postings and picks up the new value.
  store.put({15, {{"id", logm::Value("U3")}}});
  EXPECT_EQ(*store.attr_index("id")->equal(logm::Value("U1")),
            (std::vector<Glsn>{10}));
  EXPECT_EQ(store.column("C1")->present, 1u);

  store.erase(10);
  EXPECT_EQ(store.row_count(), 2u);
  EXPECT_EQ(store.attr_index("id")->equal(logm::Value("U1")), nullptr);
  EXPECT_EQ(store.row_of(15), std::optional<std::size_t>{0});
  EXPECT_EQ(store.row_of(10), std::nullopt);
}

TEST(FragmentStoreColumnar, CopyRebuildsMirror) {
  FragmentStore store = full_store(make_records(61, 50));
  FragmentStore copy = store;
  store.erase(store.row_glsns().front());  // must not disturb the copy
  ASSERT_EQ(copy.row_count(), 50u);
  expect_equivalent(copy, "copied store");
}

TEST(FragmentStoreColumnar, RangeIndexRespectsBounds) {
  FragmentStore store;
  for (std::int64_t i = 0; i < 10; ++i) {
    store.put({static_cast<Glsn>(100 + i), {{"C1", logm::Value(i)}}});
  }
  const logm::AttributeIndex* idx = store.attr_index("C1");
  ASSERT_NE(idx, nullptr);
  const logm::Value lo(std::int64_t{3});
  const logm::Value hi(std::int64_t{6});
  EXPECT_EQ(idx->range(&lo, true, &hi, true),
            (std::vector<Glsn>{103, 104, 105, 106}));
  EXPECT_EQ(idx->range(&lo, false, &hi, false), (std::vector<Glsn>{104, 105}));
  EXPECT_EQ(idx->range(nullptr, false, &lo, false),
            (std::vector<Glsn>{100, 101, 102}));
  EXPECT_EQ(idx->range(&hi, false, nullptr, false),
            (std::vector<Glsn>{107, 108, 109}));
  ASSERT_NE(idx->min_value(), nullptr);
  EXPECT_EQ(idx->min_value()->as_int(), 0);
  EXPECT_EQ(idx->max_value()->as_int(), 9);
}

}  // namespace
}  // namespace dla::audit
