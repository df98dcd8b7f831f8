#include <gtest/gtest.h>

#include <span>
#include <tuple>
#include <vector>

#include "connectivity/components.hpp"
#include "connectivity/union_find.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"
#include "util/thread_pool.hpp"

namespace parbcc {
namespace {

/// Roots of a component-minimum labeling: label[v] == v exactly there.
vid count_roots(std::span<const vid> labels) {
  vid count = 0;
  for (std::size_t v = 0; v < labels.size(); ++v) {
    if (labels[v] == v) ++count;
  }
  return count;
}

TEST(UnionFind, BasicUniteAndFind) {
  UnionFind uf(6);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_TRUE(uf.unite(2, 3));
  EXPECT_FALSE(uf.unite(1, 0));
  EXPECT_TRUE(uf.same(0, 1));
  EXPECT_FALSE(uf.same(0, 2));
  EXPECT_TRUE(uf.unite(1, 3));
  EXPECT_TRUE(uf.same(0, 2));
  EXPECT_FALSE(uf.same(4, 5));
}

TEST(Components, LabelIsComponentMinimum) {
  Executor ex(4);
  Workspace ws;
  // Two components: {0,1,2} and {3,4}.
  EdgeList g(5, {{2, 1}, {1, 0}, {4, 3}});
  std::vector<vid> labels(g.n);
  connected_components(ex, ws, g.n, g.edges, labels);
  EXPECT_EQ(labels, (std::vector<vid>{0, 0, 0, 3, 3}));
  EXPECT_EQ(count_roots(labels), 2u);
}

TEST(Components, IsolatedVerticesAreOwnComponents) {
  Executor ex(2);
  Workspace ws;
  EdgeList g(4, {{1, 2}});
  std::vector<vid> labels(g.n);
  connected_components(ex, ws, g.n, g.edges, labels);
  EXPECT_EQ(labels[0], 0u);
  EXPECT_EQ(labels[1], 1u);
  EXPECT_EQ(labels[2], 1u);
  EXPECT_EQ(labels[3], 3u);
  EXPECT_EQ(count_roots(labels), 3u);
}

TEST(Components, EmptyGraph) {
  Executor ex(2);
  Workspace ws;
  std::vector<vid> labels;
  connected_components(ex, ws, 0, {}, labels);
  EXPECT_TRUE(labels.empty());
}

class ComponentsParam
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ComponentsParam, MatchesSequentialUnionFindOnRandomGraphs) {
  const auto [threads, seed] = GetParam();
  Executor ex(threads);
  Workspace ws;
  // Sparse enough to be well disconnected.
  const EdgeList g = gen::random_gnm(2000, 1500, seed);
  std::vector<vid> par(g.n);
  connected_components(ex, ws, g.n, g.edges, par);
  const auto seq = testutil::connected_components_seq(g.n, g.edges);
  EXPECT_EQ(par, seq);  // same contract: component-minimum labels
}

INSTANTIATE_TEST_SUITE_P(Sweep, ComponentsParam,
                         ::testing::Combine(::testing::Values(1, 2, 4, 8, 12),
                                            ::testing::Values(1, 2, 3, 4, 5)));

TEST(Components, LongPathStressesShortcutting) {
  Executor ex(4);
  Workspace ws;
  const EdgeList g = gen::path(20000);
  std::vector<vid> labels(g.n);
  connected_components(ex, ws, g.n, g.edges, labels);
  for (const vid l : labels) ASSERT_EQ(l, 0u);
}

TEST(Components, DenseSingleComponent) {
  Executor ex(4);
  Workspace ws;
  const EdgeList g = gen::complete(60);
  std::vector<vid> labels(g.n);
  connected_components(ex, ws, g.n, g.edges, labels);
  for (const vid l : labels) ASSERT_EQ(l, 0u);
}

TEST(Components, SelfLoopsJoinNothing) {
  Executor ex(4);
  Workspace ws;
  // Loops on a hub of {0,1,2}, on an isolated vertex and inside {4,5}.
  EdgeList g(6, {{1, 1}, {2, 1}, {0, 2}, {3, 3}, {5, 4}, {4, 4}, {1, 1}});
  std::vector<vid> labels(g.n);
  connected_components(ex, ws, g.n, g.edges, labels);
  EXPECT_EQ(labels, (std::vector<vid>{0, 0, 0, 3, 4, 4}));
  EXPECT_EQ(count_roots(labels), 3u);
}

TEST(Components, ParallelEdgesAreOneLink) {
  Executor ex(4);
  Workspace ws;
  // Three copies of {1,3} (both orientations), two of {4,2}.
  EdgeList g(5, {{3, 1}, {1, 3}, {3, 1}, {4, 2}, {2, 4}});
  std::vector<vid> labels(g.n);
  connected_components(ex, ws, g.n, g.edges, labels);
  EXPECT_EQ(labels, (std::vector<vid>{0, 1, 2, 1, 2}));
  EXPECT_EQ(count_roots(labels), 3u);
}

TEST(NormalizeLabels, CompactsByFirstAppearance) {
  std::vector<vid> labels = {7, 3, 7, 9, 3};
  const vid k = normalize_labels(labels);
  EXPECT_EQ(k, 3u);
  EXPECT_EQ(labels, (std::vector<vid>{0, 1, 0, 2, 1}));
}

TEST(NormalizeLabels, HandlesLabelsBeyondArraySize) {
  std::vector<vid> labels = {100, 100, 50};
  const vid k = normalize_labels(labels);
  EXPECT_EQ(k, 2u);
  EXPECT_EQ(labels, (std::vector<vid>{0, 0, 1}));
}

}  // namespace
}  // namespace parbcc
