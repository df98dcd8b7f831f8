#include <gtest/gtest.h>

#include <algorithm>

#include "eulertour/tree_computations.hpp"
#include "forest.hpp"
#include "graph/generators.hpp"
#include "paper/lowhigh.hpp"
#include "paper/tv_core.hpp"
#include "util/thread_pool.hpp"

namespace parbcc {
namespace {

/// Build a RootedSpanningTree over `g` using the sequential forest and
/// the level pipeline; also returns children/levels for the sweep
/// variant.
struct Fixture {
  RootedSpanningTree tree;
  ChildrenCsr children;
  LevelStructure levels;
  std::vector<vid> owner;

  Fixture(Executor& ex, const EdgeList& g, vid root) {
  Workspace ws;
    const auto tree_ids = sequential_spanning_forest(g.n, g.edges);
    tree.root = root;
    tree.parent.assign(g.n, kNoVertex);
    tree.parent_edge.assign(g.n, kNoEdge);
    // Orient the forest edges away from the root with a simple DFS.
    std::vector<std::vector<std::pair<vid, eid>>> adj(g.n);
    for (const eid e : tree_ids) {
      adj[g.edges[e].u].push_back({g.edges[e].v, e});
      adj[g.edges[e].v].push_back({g.edges[e].u, e});
    }
    tree.parent[root] = root;
    std::vector<vid> stack = {root};
    while (!stack.empty()) {
      const vid v = stack.back();
      stack.pop_back();
      for (const auto& [w, e] : adj[v]) {
        if (tree.parent[w] == kNoVertex) {
          tree.parent[w] = v;
          tree.parent_edge[w] = e;
          stack.push_back(w);
        }
      }
    }
    children = build_children(ex, ws, tree.parent, root);
    levels = build_levels(ex, children, root);
    preorder_and_size(ex, children, levels, root, tree.pre, tree.sub);
    owner = make_tree_owner(ex, g.m(), tree);
  }
};

/// O(n * m) reference: for every v scan all nontree edges incident to
/// the subtree.
LowHigh brute_force_low_high(const EdgeList& g, const RootedSpanningTree& tree,
                             const std::vector<vid>& owner) {
  const vid n = g.n;
  LowHigh out;
  out.low.resize(n);
  out.high.resize(n);
  for (vid v = 0; v < n; ++v) {
    vid lo = kNoVertex, hi = 0;
    for (vid w = 0; w < n; ++w) {
      if (!tree.is_ancestor(v, w)) continue;
      lo = std::min(lo, tree.pre[w]);
      hi = std::max(hi, tree.pre[w]);
      for (eid e = 0; e < g.m(); ++e) {
        if (owner[e] != kNoVertex) continue;
        vid other = kNoVertex;
        if (g.edges[e].u == w) other = g.edges[e].v;
        if (g.edges[e].v == w) other = g.edges[e].u;
        if (other == kNoVertex) continue;
        lo = std::min(lo, tree.pre[other]);
        hi = std::max(hi, tree.pre[other]);
      }
    }
    out.low[v] = lo;
    out.high[v] = hi;
  }
  return out;
}

class LowHighParam : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LowHighParam, BothBackEndsMatchBruteForce) {
  const auto [threads, seed] = GetParam();
  Executor ex(threads);
  Workspace ws;
  const EdgeList g = gen::random_connected_gnm(200, 600, seed);
  const Fixture fx(ex, g, 0);
  const LowHigh expect = brute_force_low_high(g, fx.tree, fx.owner);

  const LowHigh rmq = compute_low_high_rmq(ex, ws, g.edges, fx.tree, fx.owner);
  EXPECT_EQ(rmq.low, expect.low);
  EXPECT_EQ(rmq.high, expect.high);

  const LowHigh sweep = compute_low_high_levels(ex, g.edges, fx.tree,
                                                fx.owner, fx.children,
                                                fx.levels);
  EXPECT_EQ(sweep.low, expect.low);
  EXPECT_EQ(sweep.high, expect.high);
}

INSTANTIATE_TEST_SUITE_P(Sweep, LowHighParam,
                         ::testing::Combine(::testing::Values(1, 2, 4),
                                            ::testing::Values(1, 2, 3, 4)));

TEST(LowHigh, TreeOnlyGraphIsPurePreorderIntervals) {
  Executor ex(2);
  // No nontree edges: low(v) = pre(v), high(v) = pre(v) + sub(v) - 1.
  const EdgeList g = gen::path(50);
  const Fixture fx(ex, g, 0);
  const LowHigh lh =
      compute_low_high_levels(ex, g.edges, fx.tree, fx.owner, fx.children,
                              fx.levels);
  for (vid v = 0; v < g.n; ++v) {
    EXPECT_EQ(lh.low[v], fx.tree.pre[v]);
    EXPECT_EQ(lh.high[v], fx.tree.pre[v] + fx.tree.sub[v] - 1);
  }
}

TEST(LowHigh, CycleSubtreesSeeTheRoot) {
  Executor ex(2);
  Workspace ws;
  const EdgeList g = gen::cycle(10);
  const Fixture fx(ex, g, 0);
  const LowHigh lh = compute_low_high_rmq(ex, ws, g.edges, fx.tree, fx.owner);
  // On a cycle rooted anywhere, every subtree is incident to the
  // closing nontree edge's endpoints: low of every non-root vertex
  // reaches pre(root) = 1.
  for (vid v = 0; v < g.n; ++v) {
    if (v == 0) continue;
    EXPECT_EQ(lh.low[v], 1u) << "v=" << v;
  }
}

TEST(MakeTreeOwner, MarksExactlyTheTreeEdges) {
  Executor ex(2);
  const EdgeList g = gen::random_connected_gnm(100, 300, 9);
  const Fixture fx(ex, g, 0);
  vid owned = 0;
  for (eid e = 0; e < g.m(); ++e) {
    if (fx.owner[e] != kNoVertex) {
      ++owned;
      EXPECT_EQ(fx.tree.parent_edge[fx.owner[e]], e);
    }
  }
  EXPECT_EQ(owned, g.n - 1);
}

}  // namespace
}  // namespace parbcc
