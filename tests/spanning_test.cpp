#include <gtest/gtest.h>

#include <algorithm>

#include "connectivity/shiloach_vishkin.hpp"
#include "connectivity/union_find.hpp"
#include "forest.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "paper/sv_tree.hpp"
#include "paper/traversal_tree.hpp"
#include "spanning/bfs_tree.hpp"
#include "test_util.hpp"
#include "util/thread_pool.hpp"

namespace parbcc {
namespace {

/// The BFS root of every single-root tree below.
constexpr vid kRoot = 0;

void expect_spanning_forest(const EdgeList& g,
                            const std::vector<eid>& tree_edges) {
  // Acyclic...
  ASSERT_TRUE(is_forest(g.n, g.edges, tree_edges));
  // ...and maximal: exactly n - #components edges.
  const vid comps = testutil::component_count(g);
  EXPECT_EQ(tree_edges.size(), g.n - comps);
}

class SpanParam : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SpanParam, SvForestIsMaximalAcyclicOnRandomGraphs) {
  const auto [threads, seed] = GetParam();
  Executor ex(threads);
  Workspace ws;
  const EdgeList g = gen::random_gnm(3000, 6000, seed);
  const SpanningForest forest = sv_spanning_forest(ex, ws, g.n, g.edges);
  expect_spanning_forest(g, forest.tree_edges);
  EXPECT_EQ(forest.num_components, testutil::component_count(g));
  // Component labels must match union-find.
  EXPECT_EQ(forest.comp, connected_components_seq(g.n, g.edges));
}

TEST_P(SpanParam, TraversalTreeIsValidRootedSpanningTree) {
  const auto [threads, seed] = GetParam();
  Executor ex(threads);
  Workspace ws;
  const EdgeList g = gen::random_connected_gnm(3000, 9000, seed);
  const Csr csr = Csr::build(ex, ws, g);
  const TraversalTree tree = traversal_spanning_tree(ex, csr, 0);
  EXPECT_EQ(tree.reached, g.n);
  EXPECT_TRUE(is_valid_rooted_tree(tree.parent, 0));
  // parent_edge must actually connect v to parent[v].
  for (vid v = 1; v < g.n; ++v) {
    const Edge& e = g.edges[tree.parent_edge[v]];
    EXPECT_TRUE((e.u == v && e.v == tree.parent[v]) ||
                (e.v == v && e.u == tree.parent[v]));
  }
}

TEST_P(SpanParam, BfsTreeLevelsAreShortestPathDepths) {
  const auto [threads, seed] = GetParam();
  Executor ex(threads);
  Workspace ws;
  const EdgeList g = gen::random_connected_gnm(2000, 5000, seed);
  const Csr csr = Csr::build(ex, ws, g);
  const BfsTree par = bfs_tree(ex, ws, csr, {&kRoot, 1});
  const SeqBfsResult seq = sequential_bfs(csr, 0);
  EXPECT_EQ(par.reached, g.n);
  EXPECT_EQ(par.level, seq.level);  // BFS depths are unique
  EXPECT_TRUE(is_valid_rooted_tree(par.parent, 0));
  // Parent is exactly one level up.
  for (vid v = 1; v < g.n; ++v) {
    ASSERT_EQ(par.level[v], par.level[par.parent[v]] + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SpanParam,
                         ::testing::Combine(::testing::Values(1, 2, 4, 8),
                                            ::testing::Values(1, 2, 3)));

TEST(SvForest, SubsetOverloadRestrictsEdges) {
  Executor ex(4);
  Workspace ws;
  // A square 0-1-2-3-0 plus diagonal; restrict to the square only.
  EdgeList g(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}});
  const std::vector<eid> subset = {0, 1, 2, 3};
  const SpanningForest forest =
      sv_spanning_forest(ex, ws, g.n, g.edges, subset);
  EXPECT_EQ(forest.num_components, 1u);
  EXPECT_EQ(forest.tree_edges.size(), 3u);
  for (const eid e : forest.tree_edges) {
    EXPECT_TRUE(std::find(subset.begin(), subset.end(), e) != subset.end());
  }
}

TEST(SvForest, EmptySubsetLeavesAllIsolated) {
  Executor ex(2);
  Workspace ws;
  EdgeList g(5, {{0, 1}, {2, 3}});
  const SpanningForest forest =
      sv_spanning_forest(ex, ws, g.n, g.edges, std::span<const eid>{});
  EXPECT_EQ(forest.num_components, 5u);
  EXPECT_TRUE(forest.tree_edges.empty());
}

TEST(TraversalTree, DisconnectedReportsPartialReach) {
  Executor ex(4);
  Workspace ws;
  EdgeList g(6, {{0, 1}, {1, 2}, {3, 4}});
  const Csr csr = Csr::build(ex, ws, g);
  const TraversalTree tree = traversal_spanning_tree(ex, csr, 0);
  EXPECT_EQ(tree.reached, 3u);
  EXPECT_EQ(tree.parent[3], kNoVertex);
  EXPECT_EQ(tree.parent[5], kNoVertex);
}

TEST(BfsTree, PathGraphHasLinearLevels) {
  Executor ex(4);
  Workspace ws;
  const EdgeList g = gen::path(1000);
  const Csr csr = Csr::build(ex, ws, g);
  const BfsTree tree = bfs_tree(ex, ws, csr, {&kRoot, 1});
  EXPECT_EQ(tree.num_levels, 1000u);
  for (vid v = 0; v < g.n; ++v) ASSERT_EQ(tree.level[v], v);
}

TEST(BfsTree, StarHasTwoLevels) {
  Executor ex(4);
  Workspace ws;
  const EdgeList g = gen::star(100);
  const Csr csr = Csr::build(ex, ws, g);
  const BfsTree tree = bfs_tree(ex, ws, csr, {&kRoot, 1});
  EXPECT_EQ(tree.num_levels, 2u);
}

TEST(BfsTree, AllEdgesSpanAtMostOneLevel) {
  Executor ex(4);
  Workspace ws;
  const EdgeList g = gen::random_connected_gnm(2000, 8000, 77);
  const Csr csr = Csr::build(ex, ws, g);
  const BfsTree tree = bfs_tree(ex, ws, csr, {&kRoot, 1});
  // The property TV-filter's Lemma 1 rests on.
  for (const Edge& e : g.edges) {
    const int du = static_cast<int>(tree.level[e.u]);
    const int dv = static_cast<int>(tree.level[e.v]);
    ASSERT_LE(std::abs(du - dv), 1);
  }
}

TEST(SequentialForest, MatchesComponentArithmetic) {
  const EdgeList g = gen::random_gnm(500, 300, 5);
  const auto forest = sequential_spanning_forest(g.n, g.edges);
  expect_spanning_forest(g, forest);
}

TEST(IsValidRootedTree, AcceptsAndRejects) {
  // Valid: 0 <- 1 <- 2.
  EXPECT_TRUE(is_valid_rooted_tree(std::vector<vid>{0, 0, 1}, 0));
  // Cycle: 1 -> 2 -> 1.
  EXPECT_FALSE(is_valid_rooted_tree(std::vector<vid>{0, 2, 1}, 0));
  // Wrong root marker.
  EXPECT_FALSE(is_valid_rooted_tree(std::vector<vid>{1, 0}, 0));
  // Unreachable vertices (kNoVertex) are permitted.
  EXPECT_TRUE(is_valid_rooted_tree(std::vector<vid>{0, kNoVertex}, 0));
}

}  // namespace
}  // namespace parbcc
