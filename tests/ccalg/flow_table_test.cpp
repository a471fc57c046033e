#include "ccalg/flow_table.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "core/rng.hpp"

namespace ibsim::ccalg {
namespace {

struct Value {
  std::int64_t v = 0;
};

/// Keys whose home slot equals `key`'s in `t`'s current array.
std::vector<std::int32_t> colliding_with(const FlowTable<Value>& t, std::int32_t key,
                                         std::size_t n) {
  std::vector<std::int32_t> out;
  for (std::int32_t k = key + 1; out.size() < n; ++k) {
    if (t.home_slot(k) == t.home_slot(key)) out.push_back(k);
  }
  return out;
}

TEST(FlowTable, EmptyTableAllocatesNothing) {
  FlowTable<Value> t;
  EXPECT_EQ(t.capacity(), 0u);
  EXPECT_EQ(t.find(7), nullptr);
  EXPECT_FALSE(t.erase(7));
}

TEST(FlowTable, CollidingKeysAreAllFound) {
  FlowTable<Value> t;
  t.insert(3).v = 30;
  const std::size_t cap = t.capacity();
  const std::vector<std::int32_t> same = colliding_with(t, 3, 2);
  t.insert(same[0]).v = 40;
  t.insert(same[1]).v = 50;
  ASSERT_EQ(t.capacity(), cap) << "three entries must fit without growth";
  ASSERT_NE(t.find(3), nullptr);
  EXPECT_EQ(t.find(3)->v, 30);
  EXPECT_EQ(t.find(same[0])->v, 40);
  EXPECT_EQ(t.find(same[1])->v, 50);
  EXPECT_EQ(t.size(), 3u);
  // Inserting an existing key returns its entry untouched.
  EXPECT_EQ(t.insert(same[0]).v, 40);
  EXPECT_EQ(t.size(), 3u);
}

TEST(FlowTable, EraseInTheMiddleOfAProbeChain) {
  FlowTable<Value> t;
  t.insert(5).v = 1;
  const std::vector<std::int32_t> same = colliding_with(t, 5, 2);
  t.insert(same[0]).v = 2;
  t.insert(same[1]).v = 3;
  // Chain: 5, same[0], same[1] from one home slot. Dropping the middle
  // must shift the tail back so it stays reachable.
  EXPECT_TRUE(t.erase(same[0]));
  EXPECT_EQ(t.find(same[0]), nullptr);
  ASSERT_NE(t.find(same[1]), nullptr);
  EXPECT_EQ(t.find(same[1])->v, 3);
  EXPECT_EQ(t.find(5)->v, 1);
  // Dropping the head leaves the tail reachable too.
  EXPECT_TRUE(t.erase(5));
  EXPECT_EQ(t.find(same[1])->v, 3);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_FALSE(t.erase(5));
}

TEST(FlowTable, GrowsByDoublingAndKeepsEveryEntry) {
  FlowTable<Value> t;
  std::size_t last_cap = 0;
  for (std::int32_t i = 0; i < 1000; ++i) {
    // A strided key set: every 64th destination, the worst case for an
    // identity hash over a power-of-two array.
    t.insert(i * 64).v = i;
    const std::size_t cap = t.capacity();
    EXPECT_EQ(cap & (cap - 1), 0u) << "capacity must stay a power of two";
    EXPECT_LE(2 * t.size(), cap) << "load must stay at or below one half";
    if (cap != last_cap) {
      EXPECT_TRUE(last_cap == 0 || cap == 2 * last_cap);
      last_cap = cap;
    }
  }
  EXPECT_EQ(t.size(), 1000u);
  for (std::int32_t i = 0; i < 1000; ++i) {
    ASSERT_NE(t.find(i * 64), nullptr) << i;
    EXPECT_EQ(t.find(i * 64)->v, i);
    EXPECT_EQ(t.find(i * 64 + 1), nullptr);
  }
}

TEST(FlowTable, ReinsertAfterEraseStartsFresh) {
  FlowTable<Value> t;
  t.insert(9).v = 99;
  ASSERT_TRUE(t.erase(9));
  EXPECT_EQ(t.find(9), nullptr);
  EXPECT_EQ(t.insert(9).v, 0) << "a re-inserted key must not see its old value";
  EXPECT_EQ(t.size(), 1u);
}

TEST(FlowTable, RandomOpsMatchStdMap) {
  // Small key range over a small table: long chains, wrap-around at the
  // array end and erases at every chain position.
  FlowTable<Value> t;
  std::map<std::int32_t, std::int64_t> ref;
  core::Rng rng(2024);
  for (int op = 0; op < 20000; ++op) {
    const auto key = static_cast<std::int32_t>(rng.next_below(48));
    switch (rng.next_below(3)) {
      case 0:
        t.insert(key).v = op;
        ref[key] = op;
        break;
      case 1:
        ASSERT_EQ(t.erase(key), ref.erase(key) == 1) << "op " << op;
        break;
      default:
        break;
    }
    ASSERT_EQ(t.size(), ref.size()) << "op " << op;
    for (std::int32_t k = 0; k < 48; ++k) {
      const Value* v = t.find(k);
      const auto it = ref.find(k);
      ASSERT_EQ(v != nullptr, it != ref.end()) << "op " << op << " key " << k;
      if (v != nullptr) {
        ASSERT_EQ(v->v, it->second);
      }
    }
  }
}

}  // namespace
}  // namespace ibsim::ccalg
