#include <gtest/gtest.h>

#include <set>

#include "connectivity/shiloach_vishkin.hpp"
#include "connectivity/union_find.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"
#include "util/thread_pool.hpp"

namespace parbcc {
namespace {

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

TEST(SvComponents, LabelIsComponentMinimum) {
  Executor ex(4);
  Workspace ws;
  // Two components: {0,1,2} and {3,4}.
  EdgeList g(5, {{2, 1}, {1, 0}, {4, 3}});
  std::vector<vid> labels(g.n);
  connected_components_sv(ex, ws, g.n, g.edges, labels);
  EXPECT_EQ(labels, (std::vector<vid>{0, 0, 0, 3, 3}));
  EXPECT_EQ(count_components(labels), 2u);
}

TEST(SvComponents, IsolatedVerticesAreOwnComponents) {
  Executor ex(2);
  Workspace ws;
  EdgeList g(4, {{1, 2}});
  std::vector<vid> labels(g.n);
  connected_components_sv(ex, ws, g.n, g.edges, labels);
  EXPECT_EQ(labels[0], 0u);
  EXPECT_EQ(labels[1], 1u);
  EXPECT_EQ(labels[2], 1u);
  EXPECT_EQ(labels[3], 3u);
  EXPECT_EQ(count_components(labels), 3u);
}

TEST(SvComponents, EmptyGraph) {
  Executor ex(2);
  Workspace ws;
  std::vector<vid> labels;
  connected_components_sv(ex, ws, 0, {}, labels);
  EXPECT_TRUE(labels.empty());
}

class SvParam : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SvParam, MatchesSequentialUnionFindOnRandomGraphs) {
  const auto [threads, seed] = GetParam();
  Executor ex(threads);
  Workspace ws;
  // Sparse enough to be well disconnected.
  const EdgeList g = gen::random_gnm(2000, 1500, seed);
  std::vector<vid> par(g.n);
  connected_components_sv(ex, ws, g.n, g.edges, par);
  const auto seq = connected_components_seq(g.n, g.edges);
  EXPECT_EQ(par, seq);  // same contract: component-minimum labels
}

INSTANTIATE_TEST_SUITE_P(Sweep, SvParam,
                         ::testing::Combine(::testing::Values(1, 2, 4, 8),
                                            ::testing::Values(1, 2, 3, 4, 5)));

TEST(SvComponents, LongPathStressesShortcutting) {
  Executor ex(4);
  Workspace ws;
  const EdgeList g = gen::path(20000);
  std::vector<vid> labels(g.n);
  connected_components_sv(ex, ws, g.n, g.edges, labels);
  for (const vid l : labels) ASSERT_EQ(l, 0u);
}

TEST(SvComponents, DenseSingleComponent) {
  Executor ex(4);
  Workspace ws;
  const EdgeList g = gen::complete(60);
  std::vector<vid> labels(g.n);
  connected_components_sv(ex, ws, g.n, g.edges, labels);
  for (const vid l : labels) ASSERT_EQ(l, 0u);
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
