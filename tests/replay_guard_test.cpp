// Unit tests for the bounded at-least-once journals (audit/replay_guard.hpp).
#include "audit/replay_guard.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace dla::audit {
namespace {

// What every remembered-reply journal relies on: a duplicate cannot replace
// the first reply, memory stays bounded by evicting the oldest key first,
// and an evicted key is served afresh.
TEST(BoundedJournal, FirstInsertWinsAndEvictsOldestFirst) {
  BoundedJournal<std::uint64_t, int> journal;
  EXPECT_TRUE(journal.insert(0, 10));
  EXPECT_FALSE(journal.insert(0, 11));
  ASSERT_NE(journal.find(0), nullptr);
  EXPECT_EQ(*journal.find(0), 10);

  for (std::uint64_t key = 1; key < kJournalCapacity; ++key) {
    EXPECT_TRUE(journal.insert(key, 0));
  }
  EXPECT_TRUE(journal.contains(0));  // at capacity, nothing evicted yet
  EXPECT_TRUE(journal.insert(kJournalCapacity, 0));
  EXPECT_EQ(journal.find(0), nullptr);
  EXPECT_TRUE(journal.contains(1));
  EXPECT_TRUE(journal.contains(kJournalCapacity));

  EXPECT_TRUE(journal.insert(0, 12));
  EXPECT_EQ(*journal.find(0), 12);
  EXPECT_FALSE(journal.contains(1));  // the next oldest made room

  ReplayGuard guard;
  EXPECT_FALSE(guard.check_and_mark(7));
  EXPECT_TRUE(guard.check_and_mark(7));
}

}  // namespace
}  // namespace dla::audit
