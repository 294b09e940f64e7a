#include "core/signature_lru.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace dcp {
namespace {

PlanSignature Sig(uint64_t n) { return PlanSignature{n, ~n}; }

// Signatures in ForEach order (most recent first), decoded back to their n.
std::vector<uint64_t> Order(const SignatureLru<int>& lru) {
  std::vector<uint64_t> order;
  lru.ForEach(
      [&order](const PlanSignature& sig, const int&) { order.push_back(sig.lo); });
  return order;
}

TEST(SignatureLru, FindMovesEntryToFront) {
  SignatureLru<int> lru(2);
  lru.Insert(Sig(1), 10);
  lru.Insert(Sig(2), 20);
  ASSERT_NE(lru.Find(Sig(1)), nullptr);
  EXPECT_EQ(*lru.Find(Sig(1)), 10);

  // 1 was touched last, so 2 is now the least recent and goes first.
  std::vector<int> evicted;
  lru.Insert(Sig(3), 30, &evicted);
  EXPECT_EQ(evicted, std::vector<int>({20}));
  EXPECT_NE(lru.Find(Sig(1)), nullptr);
  EXPECT_EQ(lru.Find(Sig(2)), nullptr);
}

TEST(SignatureLru, EvictsLeastRecentFirst) {
  SignatureLru<int> lru(3);
  std::vector<int> evicted;
  for (uint64_t n = 1; n <= 6; ++n) {
    EXPECT_EQ(lru.Insert(Sig(n), static_cast<int>(n * 10), &evicted),
              static_cast<int>(n * 10));
  }
  EXPECT_EQ(evicted, std::vector<int>({10, 20, 30}));
  EXPECT_EQ(lru.size(), 3u);
  EXPECT_EQ(Order(lru), std::vector<uint64_t>({6, 5, 4}));
}

TEST(SignatureLru, InsertOfResidentKeyKeepsIncumbentAndMarksItRecent) {
  SignatureLru<int> lru(2);
  lru.Insert(Sig(1), 10);
  lru.Insert(Sig(2), 20);
  EXPECT_EQ(lru.Insert(Sig(1), 99), 10);
  EXPECT_EQ(*lru.Find(Sig(1)), 10);
  EXPECT_EQ(lru.size(), 2u);

  std::vector<int> evicted;
  lru.Insert(Sig(3), 30, &evicted);
  EXPECT_EQ(evicted, std::vector<int>({20}));
}

TEST(SignatureLru, ZeroCapacityStoresNothing) {
  SignatureLru<int> lru(0);
  std::vector<int> evicted;
  EXPECT_EQ(lru.Insert(Sig(1), 10, &evicted), 10);
  EXPECT_EQ(lru.Insert(Sig(1), 11, &evicted), 11);
  EXPECT_EQ(lru.size(), 0u);
  EXPECT_EQ(lru.Find(Sig(1)), nullptr);
  EXPECT_TRUE(evicted.empty());
}

TEST(SignatureLru, ClearEmptiesTheCache) {
  SignatureLru<int> lru(4);
  lru.Insert(Sig(1), 10);
  lru.Insert(Sig(2), 20);
  lru.Clear();
  EXPECT_EQ(lru.size(), 0u);
  EXPECT_EQ(lru.Find(Sig(1)), nullptr);
  EXPECT_TRUE(Order(lru).empty());
  // Still usable after a clear.
  EXPECT_EQ(lru.Insert(Sig(1), 12), 12);
  EXPECT_EQ(*lru.Find(Sig(1)), 12);
}

TEST(SignatureLru, ForEachVisitsMostRecentFirst) {
  SignatureLru<int> lru(4);
  lru.Insert(Sig(1), 10);
  lru.Insert(Sig(2), 20);
  lru.Insert(Sig(3), 30);
  lru.Find(Sig(1));
  EXPECT_EQ(Order(lru), std::vector<uint64_t>({1, 3, 2}));

  int sum = 0;
  lru.ForEach([&sum](const PlanSignature&, const int& value) { sum += value; });
  EXPECT_EQ(sum, 60);
}

}  // namespace
}  // namespace dcp
