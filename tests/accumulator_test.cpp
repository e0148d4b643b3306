// Tests for the one-way accumulator (Section 4.1, Eqs. 8-9).
#include "crypto/accumulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace dla::crypto {
namespace {

TEST(Accumulator, EmptyEqualsBase) {
  Accumulator acc(Accumulator::Params::fixed256());
  EXPECT_EQ(acc.value(), acc.params().x0);
}

TEST(Accumulator, AddChangesValue) {
  Accumulator acc(Accumulator::Params::fixed256());
  bn::BigUInt before = acc.value();
  acc.add("log fragment 0");
  EXPECT_NE(acc.value(), before);
}

// Eq. (9): accumulation order does not matter.
TEST(Accumulator, OrderIndependenceThreeItems) {
  auto params = Accumulator::Params::fixed256();
  std::vector<std::string> items = {"y1", "y2", "y3"};
  std::sort(items.begin(), items.end());
  bn::BigUInt reference;
  bool first = true;
  do {
    Accumulator acc(params);
    for (const auto& item : items) acc.add(item);
    if (first) {
      reference = acc.value();
      first = false;
    } else {
      EXPECT_EQ(acc.value(), reference);
    }
  } while (std::next_permutation(items.begin(), items.end()));
}

TEST(Accumulator, OrderIndependenceManyItems) {
  auto params = Accumulator::Params::fixed256();
  std::vector<std::string> items;
  for (int i = 0; i < 16; ++i) items.push_back("fragment-" + std::to_string(i));
  Accumulator forward(params), backward(params);
  for (const auto& item : items) forward.add(item);
  for (auto it = items.rbegin(); it != items.rend(); ++it) backward.add(*it);
  EXPECT_EQ(forward.value(), backward.value());
}

TEST(Accumulator, StepMatchesAdd) {
  auto params = Accumulator::Params::fixed256();
  Accumulator acc(params);
  acc.add("a").add("b");
  bn::BigUInt circulated =
      Accumulator::step(params, Accumulator::step(params, params.x0, "a"), "b");
  EXPECT_EQ(acc.value(), circulated);
}

TEST(Accumulator, TamperedItemDetected) {
  auto params = Accumulator::Params::fixed256();
  Accumulator honest(params), tampered(params);
  honest.add("glsn=139aef78|time=20:18:35").add("glsn=139aef79|time=20:20:35");
  tampered.add("glsn=139aef78|time=20:18:35").add("glsn=139aef79|time=23:59:59");
  EXPECT_NE(honest.value(), tampered.value());
}

TEST(Accumulator, MissingItemDetected) {
  auto params = Accumulator::Params::fixed256();
  Accumulator full(params), partial(params);
  full.add("a").add("b").add("c");
  partial.add("a").add("c");
  EXPECT_NE(full.value(), partial.value());
}

TEST(Accumulator, ItemExponentIsOdd) {
  for (const char* s : {"", "a", "some longer fragment payload"}) {
    EXPECT_TRUE(Accumulator::item_exponent(s).is_odd()) << s;
  }
}

TEST(Accumulator, GeneratedParamsWork) {
  ChaCha20Rng rng(1);
  auto params = Accumulator::Params::generate(rng, 128);
  EXPECT_GE(params.n.bit_length(), 126u);
  Accumulator a(params), b(params);
  a.add("x").add("y");
  b.add("y").add("x");
  EXPECT_EQ(a.value(), b.value());
}

// A deposit is one fixed-base comb power of x0 by the product of the item
// exponents; it must equal folding the items one by one. A handle sized
// for four items (a four-node cluster) covers counts 0..4 in its comb and
// takes 9 and 33 through the wide fallback; one sized per count covers
// each in its comb.
TEST(AccumulatorStepper, DepositMatchesSequentialFold) {
  ChaCha20Rng rng(2);
  for (const auto& params : {Accumulator::Params::fixed256(),
                             Accumulator::Params::generate(rng, 128)}) {
    const AccumulatorStepper four(params, 4);
    for (std::size_t count : {0u, 1u, 2u, 4u, 9u, 33u}) {
      std::vector<std::string> items;
      Accumulator fold(params);
      for (std::size_t i = 0; i < count; ++i) {
        items.push_back("fragment-" + std::to_string(i));
        fold.add(items.back());
      }
      EXPECT_EQ(four.deposit(items), fold.value()) << count << " items";
      EXPECT_EQ(AccumulatorStepper(params, count).deposit(items),
                fold.value())
          << count << " items";
    }
  }
}

// The integrity circulation: a one-item deposit, then one step per node,
// ends on the user's deposit.
TEST(AccumulatorStepper, CirculationEndsOnTheDeposit) {
  auto params = Accumulator::Params::fixed256();
  const AccumulatorStepper stepper(params, 4);
  const std::vector<std::string> items = {"P0", "P1", "P2", "P3"};
  bn::BigUInt value = stepper.deposit({items[2]});
  for (std::size_t hop = 1; hop < items.size(); ++hop) {
    value = stepper.step(value, items[(2 + hop) % items.size()]);
  }
  EXPECT_EQ(value, stepper.deposit(items));
}

// Parameterised: order-independence holds for any item count.
class AccumulatorSweep : public ::testing::TestWithParam<int> {};

TEST_P(AccumulatorSweep, ShuffledOrdersAgree) {
  auto params = Accumulator::Params::fixed256();
  const int count = GetParam();
  std::vector<std::string> items;
  for (int i = 0; i < count; ++i) items.push_back("item" + std::to_string(i));
  Accumulator ordered(params);
  for (const auto& item : items) ordered.add(item);

  // Deterministic shuffle.
  ChaCha20Rng rng(count);
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.next_below(i)]);
  }
  Accumulator shuffled(params);
  for (const auto& item : items) shuffled.add(item);
  EXPECT_EQ(ordered.value(), shuffled.value());
}

INSTANTIATE_TEST_SUITE_P(Counts, AccumulatorSweep,
                         ::testing::Values(1, 2, 4, 9, 33));

}  // namespace
}  // namespace dla::crypto
