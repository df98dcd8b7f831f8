#include <gtest/gtest.h>

#include <functional>

#include "eulertour/tree_computations.hpp"
#include "graph/generators.hpp"
#include "lca.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace parbcc {
namespace {

struct TreeFixture {
  RootedSpanningTree tree;
  ChildrenCsr children;
  LevelStructure levels;

  TreeFixture(Executor& ex, std::vector<vid> parent, vid root) {
    tree.root = root;
    tree.parent = std::move(parent);
    Workspace ws;
    children = build_children(ex, ws, tree.parent, root);
    levels = build_levels(ex, children, root);
    preorder_and_size(ex, children, levels, root, tree.pre, tree.sub);
  }
};

/// Uniform-attachment random parent array.
std::vector<vid> random_parents(vid n, std::uint64_t seed) {
  std::vector<vid> parent(n);
  parent[0] = 0;
  Xoshiro256 rng(seed);
  for (vid v = 1; v < n; ++v) parent[v] = static_cast<vid>(rng.below(v));
  return parent;
}

vid brute_force_lca(const std::vector<vid>& parent,
                    const std::vector<vid>& depth, vid u, vid v) {
  while (u != v) {
    if (depth[u] >= depth[v]) {
      u = parent[u];
    } else {
      v = parent[v];
    }
  }
  return u;
}

class LcaParam : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LcaParam, MatchesParentWalk) {
  const auto [threads, n] = GetParam();
  Executor ex(threads);
  TreeFixture fx(ex, random_parents(static_cast<vid>(n), n * 11 + 1), 0);
  const LcaIndex index(ex, fx.tree, fx.children, fx.levels);

  Xoshiro256 rng(n);
  for (int q = 0; q < 1000; ++q) {
    const vid u = static_cast<vid>(rng.below(static_cast<vid>(n)));
    const vid v = static_cast<vid>(rng.below(static_cast<vid>(n)));
    const vid expect =
        brute_force_lca(fx.tree.parent, fx.levels.depth, u, v);
    ASSERT_EQ(index.lca(u, v), expect) << "u=" << u << " v=" << v;
    const vid dist = fx.levels.depth[u] + fx.levels.depth[v] -
                     2 * fx.levels.depth[expect];
    ASSERT_EQ(index.distance(u, v), dist);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, LcaParam,
                         ::testing::Combine(::testing::Values(1, 4),
                                            ::testing::Values(2, 17, 1000,
                                                              20000)));

TEST(Lca, IdentityAndParentChild) {
  Executor ex(1);
  // Path 0 - 1 - 2 - 3.
  TreeFixture fx(ex, {0, 0, 1, 2}, 0);
  const LcaIndex index(ex, fx.tree, fx.children, fx.levels);
  EXPECT_EQ(index.lca(3, 3), 3u);
  EXPECT_EQ(index.lca(3, 2), 2u);
  EXPECT_EQ(index.lca(0, 3), 0u);
  EXPECT_EQ(index.distance(0, 3), 3u);
  EXPECT_EQ(index.distance(2, 2), 0u);
}

TEST(Lca, Siblings) {
  Executor ex(1);
  // Star: 1..4 children of 0.
  TreeFixture fx(ex, {0, 0, 0, 0, 0}, 0);
  const LcaIndex index(ex, fx.tree, fx.children, fx.levels);
  EXPECT_EQ(index.lca(1, 2), 0u);
  EXPECT_EQ(index.lca(3, 4), 0u);
  EXPECT_EQ(index.distance(1, 4), 2u);
}

TEST(Lca, SingleVertexTree) {
  Executor ex(2);
  TreeFixture fx(ex, {0}, 0);
  const LcaIndex index(ex, fx.tree, fx.children, fx.levels);
  EXPECT_EQ(index.lca(0, 0), 0u);
}

}  // namespace
}  // namespace parbcc
