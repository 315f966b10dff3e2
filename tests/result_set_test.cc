#include "asta/result_set.h"

#include <gtest/gtest.h>

#include "util/random.h"

namespace xpwqo {
namespace {

TEST(NodeListTest, EmptyList) {
  NodeListArena arena;
  NodeList e = arena.Empty();
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(arena.SizeOf(e), 0);
  EXPECT_TRUE(arena.Materialize(e).empty());
}

TEST(NodeListTest, Singleton) {
  NodeListArena arena;
  NodeList l = arena.Singleton(42);
  EXPECT_EQ(arena.SizeOf(l), 1);
  EXPECT_EQ(arena.Materialize(l), (std::vector<NodeId>{42}));
}

TEST(NodeListTest, DisjointConcatIsOrdered) {
  NodeListArena arena;
  NodeList a = arena.Union(arena.Singleton(1), arena.Singleton(5));
  NodeList b = arena.Union(arena.Singleton(10), arena.Singleton(20));
  NodeList ab = arena.Union(a, b);
  EXPECT_EQ(arena.Materialize(ab), (std::vector<NodeId>{1, 5, 10, 20}));
  // Reverse argument order still yields sorted output.
  NodeList ba = arena.Union(b, a);
  EXPECT_EQ(arena.Materialize(ba), (std::vector<NodeId>{1, 5, 10, 20}));
}

TEST(NodeListTest, OverlappingUnionDeduplicates) {
  NodeListArena arena;
  NodeList a = arena.Union(arena.Singleton(1), arena.Singleton(10));
  NodeList b = arena.Union(arena.Singleton(5), arena.Singleton(10));
  NodeList u = arena.Union(a, b);
  EXPECT_EQ(arena.Materialize(u), (std::vector<NodeId>{1, 5, 10}));
  EXPECT_EQ(arena.SizeOf(u), 3);
}

TEST(NodeListTest, ConsPrepends) {
  NodeListArena arena;
  NodeList l = arena.Union(arena.Singleton(7), arena.Singleton(9));
  NodeList c = arena.Cons(3, l);
  EXPECT_EQ(arena.Materialize(c), (std::vector<NodeId>{3, 7, 9}));
}

TEST(NodeListTest, SharingIsSafe) {
  // The same list used in two unions must not be corrupted (persistence).
  NodeListArena arena;
  NodeList shared = arena.Union(arena.Singleton(5), arena.Singleton(6));
  NodeList u1 = arena.Union(arena.Singleton(1), shared);
  NodeList u2 = arena.Union(arena.Singleton(2), shared);
  EXPECT_EQ(arena.Materialize(u1), (std::vector<NodeId>{1, 5, 6}));
  EXPECT_EQ(arena.Materialize(u2), (std::vector<NodeId>{2, 5, 6}));
  EXPECT_EQ(arena.Materialize(shared), (std::vector<NodeId>{5, 6}));
}

TEST(NodeListTest, RandomizedUnionsMatchSetSemantics) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Random rng(seed);
    NodeListArena arena;
    std::vector<std::pair<NodeList, std::vector<NodeId>>> pool;
    for (int i = 0; i < 30; ++i) {
      NodeId n = static_cast<NodeId>(rng.Uniform(100));
      pool.push_back({arena.Singleton(n), {n}});
    }
    for (int i = 0; i < 60; ++i) {
      size_t x = rng.Uniform(pool.size());
      size_t y = rng.Uniform(pool.size());
      NodeList u = arena.Union(pool[x].first, pool[y].first);
      std::vector<NodeId> expect;
      std::set_union(pool[x].second.begin(), pool[x].second.end(),
                     pool[y].second.begin(), pool[y].second.end(),
                     std::back_inserter(expect));
      ASSERT_EQ(arena.Materialize(u), expect);
      pool.push_back({u, expect});
    }
  }
}

TEST(NodeListTest, ResetReclaims) {
  NodeListArena arena;
  arena.Union(arena.Singleton(1), arena.Singleton(2));
  size_t used = arena.MemoryUsage();
  EXPECT_GT(used, 0u);
  arena.Reset();
  NodeList l = arena.Singleton(9);
  EXPECT_EQ(arena.Materialize(l), (std::vector<NodeId>{9}));
}

TEST(ResultSetTest, MarksRoundTrip) {
  NodeListArena arena;
  ResultSet rs(4);
  EXPECT_TRUE(rs.MarksOf(2).empty());
  rs.AddMarks(2, arena.Singleton(10), &arena);
  rs.AddMarks(0, arena.Singleton(3), &arena);
  rs.AddMarks(2, arena.Singleton(20), &arena);
  EXPECT_EQ(arena.Materialize(rs.MarksOf(2)), (std::vector<NodeId>{10, 20}));
  EXPECT_EQ(arena.Materialize(rs.MarksOf(0)), (std::vector<NodeId>{3}));
  EXPECT_TRUE(rs.MarksOf(1).empty());
  ASSERT_EQ(rs.num_marked(), 2);
  EXPECT_EQ(rs.marked_state(0), 0);
  EXPECT_EQ(rs.marked_state(1), 2);
}

TEST(ResultSetTest, SpillsPastInlineMarks) {
  // More marked states than fit inline: states arrive out of order, and
  // both a fresh state and a repeat land after the spill.
  NodeListArena arena;
  const int n = ResultSet::kInlineMarks + 3;
  ResultSet rs(n);
  for (int i = n - 1; i >= 0; --i) {
    rs.AddMarks(i, arena.Singleton(10 * i), &arena);
  }
  rs.AddMarks(1, arena.Singleton(11), &arena);
  ASSERT_EQ(rs.num_marked(), n);
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(rs.marked_state(i), i);
    std::vector<NodeId> want{10 * i};
    if (i == 1) want.push_back(11);
    EXPECT_EQ(arena.Materialize(rs.MarksOf(i)), want) << i;
  }
  EXPECT_TRUE(rs.MarksOf(n).empty());
}

TEST(ResultSetTest, AddEmptyMarksIsNoop) {
  NodeListArena arena;
  ResultSet rs(2);
  rs.AddMarks(1, NodeList{}, &arena);
  EXPECT_EQ(rs.num_marked(), 0);
}

TEST(StateMaskTest, BasicOps) {
  StateMask m(130);
  EXPECT_TRUE(m.None());
  m.Set(0);
  m.Set(64);
  m.Set(129);
  EXPECT_TRUE(m.Get(0));
  EXPECT_TRUE(m.Get(64));
  EXPECT_TRUE(m.Get(129));
  EXPECT_FALSE(m.Get(1));
  EXPECT_EQ(m.ToVector(), (std::vector<StateId>{0, 64, 129}));
  StateMask o(130);
  o.Set(5);
  m.UnionWith(o);
  EXPECT_TRUE(m.Get(5));
  EXPECT_FALSE(m == o);
  StateMask copy = m;
  EXPECT_TRUE(copy == m);
  EXPECT_EQ(copy.Hash(), m.Hash());
}

}  // namespace
}  // namespace xpwqo
