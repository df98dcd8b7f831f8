#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "connectivity/shiloach_vishkin.hpp"
#include "forest.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "paper/sv_tree.hpp"
#include "spanning/bfs_tree.hpp"
#include "test_util.hpp"
#include "util/thread_pool.hpp"

/// \file frontier_test.cpp
/// Property suite for the two frontier engines: the
/// direction-optimizing BFS (top-down / bottom-up / hybrid must be
/// interchangeable) and Shiloach-Vishkin (classic / FastSV must agree
/// on labels, FastSV must converge in strictly fewer rounds).

namespace parbcc {
namespace {

/// The BFS root of every single-root tree below.
constexpr vid kRoot = 0;

EdgeList family_graph(const std::string& family, int seed) {
  if (family == "random") {
    return gen::random_connected_gnm(2000, 8000,
                                     static_cast<std::uint64_t>(seed));
  }
  if (family == "star") return gen::star(1000);
  if (family == "path") return gen::path(1000);
  return gen::grid_torus(20, 20);  // "torus"
}

class BfsModeParam
    : public ::testing::TestWithParam<std::tuple<int, std::string>> {};

TEST_P(BfsModeParam, AllModesProduceIdenticalLevelsAndValidTrees) {
  const auto [threads, family] = GetParam();
  Executor ex(threads);
  Workspace ws;
  const EdgeList g = family_graph(family, threads);
  const Csr csr = Csr::build(ex, ws, g);
  const SeqBfsResult seq = sequential_bfs(csr, 0);

  for (const BfsMode mode :
       {BfsMode::kTopDown, BfsMode::kBottomUp, BfsMode::kAuto}) {
    const BfsTree tree = bfs_tree(ex, ws, csr, {&kRoot, 1}, mode);
    EXPECT_EQ(tree.reached, g.n);
    // Levels are shortest-path depths, hence identical across modes
    // even though the parent choices may differ.
    EXPECT_EQ(tree.level, seq.level);
    EXPECT_TRUE(is_valid_rooted_tree(tree.parent, 0));
    for (vid v = 0; v < g.n; ++v) {
      if (v == 0) continue;
      // Parent is exactly one level up, via a real edge.
      ASSERT_EQ(tree.level[v], tree.level[tree.parent[v]] + 1);
      const Edge& e = g.edges[tree.parent_edge[v]];
      ASSERT_TRUE((e.u == v && e.v == tree.parent[v]) ||
                  (e.v == v && e.u == tree.parent[v]));
    }
    // Round telemetry matches the mode that was forced.
    if (mode == BfsMode::kTopDown) {
      EXPECT_EQ(tree.bottom_up_rounds, 0u);
    }
    if (mode == BfsMode::kBottomUp) {
      EXPECT_EQ(tree.top_down_rounds, 0u);
    }
    EXPECT_EQ(tree.top_down_rounds + tree.bottom_up_rounds, tree.num_levels);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BfsModeParam,
    ::testing::Combine(::testing::Values(1, 4, 12),
                       ::testing::Values("random", "star", "path", "torus")));

TEST(BfsDirection, TopDownInspectsEveryArcOnce) {
  Executor ex(4);
  Workspace ws;
  const EdgeList g = gen::random_connected_gnm(3000, 12000, 9);
  const Csr csr = Csr::build(ex, ws, g);
  const BfsTree tree = bfs_tree(ex, ws, csr, {&kRoot, 1}, BfsMode::kTopDown);
  // On a connected graph every vertex joins the frontier exactly once,
  // so top-down inspections total the arc count 2m.
  EXPECT_EQ(tree.inspected_edges, 2 * static_cast<std::uint64_t>(g.m()));
}

TEST(BfsDirection, HybridInspectsFewerEdgesOnLowDiameterGraphs) {
  Executor ex(4);
  Workspace ws;
  for (const std::uint64_t seed : {1, 2, 3}) {
    const EdgeList g = gen::random_connected_gnm(4000, 32000, seed);
    const Csr csr = Csr::build(ex, ws, g);
    const BfsTree td = bfs_tree(ex, ws, csr, {&kRoot, 1}, BfsMode::kTopDown);
    const BfsTree hy = bfs_tree(ex, ws, csr, {&kRoot, 1}, BfsMode::kAuto);
    EXPECT_LT(hy.inspected_edges, td.inspected_edges);
    EXPECT_GT(hy.bottom_up_rounds, 0u);  // the switch actually fired
  }
}

TEST(BfsDirection, HybridStaysSparseOnHighDiameterGraphs) {
  Executor ex(4);
  Workspace ws;
  const EdgeList g = gen::path(5000);
  const Csr csr = Csr::build(ex, ws, g);
  const BfsTree tree = bfs_tree(ex, ws, csr, {&kRoot, 1}, BfsMode::kAuto);
  // A two-vertex frontier never clears the alpha threshold.
  EXPECT_EQ(tree.bottom_up_rounds, 0u);
}

TEST(BfsDirection, LongPathAtFullWidthReachesEveryLevel) {
  // One vertex per round for 200k rounds: each round's gather must run
  // inline, not fork the whole pool.
  Executor ex(4);
  Workspace ws;
  const vid n = 200000;
  const Csr csr = Csr::build(ex, ws, gen::path(n));
  const BfsTree tree = bfs_tree(ex, ws, csr, {&kRoot, 1});
  ASSERT_EQ(tree.reached, n);
  EXPECT_EQ(tree.num_levels, n);
  for (vid v = 0; v < n; ++v) ASSERT_EQ(tree.level[v], v);
}

TEST(BfsDirection, MultiSourceForestMatchesNearestRootDepths) {
  // Three components (a torus, a path, an isolated vertex) and a
  // fourth root inside the torus: every mode gives each vertex its
  // distance to the nearest root.
  EdgeList g = gen::grid_torus(20, 20);
  const vid path_begin = g.n;
  g.n += 50;
  for (vid v = path_begin; v + 1 < g.n; ++v) g.add_edge(v, v + 1);
  g.n += 1;
  const std::vector<vid> roots = {0, 210, path_begin + 25, g.n - 1};
  for (const int p : {1, 4, 12}) {
    Executor ex(p);
    Workspace ws;
    const Csr csr = Csr::build(ex, ws, g);
    std::vector<vid> expected(g.n, kNoVertex);
    for (const vid r : roots) {
      const SeqBfsResult seq = sequential_bfs(csr, r);
      for (vid v = 0; v < g.n; ++v) {
        expected[v] = std::min(expected[v], seq.level[v]);
      }
    }
    for (const BfsMode mode :
         {BfsMode::kTopDown, BfsMode::kBottomUp, BfsMode::kAuto}) {
      const BfsTree tree = bfs_tree(ex, ws, csr, roots, mode);
      EXPECT_EQ(tree.reached, g.n);
      EXPECT_EQ(tree.level, expected) << "p=" << p;
      for (vid v = 0; v < g.n; ++v) {
        if (tree.level[v] == 0) {
          ASSERT_EQ(tree.parent[v], v);
        } else {
          ASSERT_EQ(tree.level[tree.parent[v]] + 1, tree.level[v]);
        }
      }
    }
  }
}

class SvModeParam : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SvModeParam, ClassicAndFastSvAgreeWithSequentialUnionFind) {
  const auto [threads, seed] = GetParam();
  Executor ex(threads);
  Workspace ws;
  // Sparse enough to be well disconnected.
  const EdgeList g = gen::random_gnm(2000, 1500, seed);
  const auto seq = connected_components_seq(g.n, g.edges);
  for (const SvMode mode : {SvMode::kClassic, SvMode::kFastSV}) {
    SvStats stats;
    std::vector<vid> par(g.n);
    connected_components_sv(ex, ws, g.n, g.edges, par, mode, &stats);
    EXPECT_EQ(par, seq);  // same contract: component-minimum labels
    EXPECT_GE(stats.rounds, 1u);
  }
}

TEST_P(SvModeParam, ForestHasExactlyNMinusCEdgesInEveryMode) {
  const auto [threads, seed] = GetParam();
  Executor ex(threads);
  Workspace ws;
  const EdgeList g = gen::random_gnm(3000, 6000, seed);
  const vid comps = testutil::component_count(g);
  for (const SvMode mode : {SvMode::kClassic, SvMode::kFastSV}) {
    const SpanningForest forest =
        sv_spanning_forest(ex, ws, g.n, g.edges, mode);
    EXPECT_EQ(forest.num_components, comps);
    EXPECT_EQ(forest.tree_edges.size(), g.n - comps);
    EXPECT_TRUE(is_forest(g.n, g.edges, forest.tree_edges));
    EXPECT_EQ(forest.comp, connected_components_seq(g.n, g.edges));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SvModeParam,
                         ::testing::Combine(::testing::Values(1, 4, 12),
                                            ::testing::Values(1, 2, 3)));

TEST(FastSv, ConvergesInFewerRoundsThanClassic) {
  // Round counts are scheduling-sensitive: labels written early in a
  // pass are visible later in the same pass, so a nearly serial
  // interleave — including workers descheduled by a loaded machine —
  // can collapse classic to its 2-round minimum even at full SPMD
  // width.  The stable property is separation under the typical
  // schedule (stride-2 hooking plus full per-round flattening lands
  // FastSV at 2 rounds while classic's single jump needs 4+), so the
  // round assertion gets a small retry budget; label equality stays
  // unconditional.  The separation is a property of the paper's SPMD
  // schedule — work-stealing's lazy splitting executes mostly in index
  // order on an idle machine, which is exactly the nearly serial
  // interleave that collapses classic — so the test pins kSpmd.
  Executor ex(12);
  Workspace ws;
  ex.set_mode(ExecMode::kSpmd);
  const EdgeList torus = gen::grid_torus(141, 141);
  const EdgeList random = gen::random_connected_gnm(20000, 160000, 20050404);
  bool separated = false;
  for (int attempt = 0; attempt < 5 && !separated; ++attempt) {
    separated = true;
    for (const EdgeList* g : {&torus, &random}) {
      SvStats classic, fast;
      std::vector<vid> lc(g->n), lf(g->n);
      connected_components_sv(ex, ws, g->n, g->edges, lc, SvMode::kClassic,
                              &classic);
      connected_components_sv(ex, ws, g->n, g->edges, lf, SvMode::kFastSV,
                              &fast);
      ASSERT_EQ(lc, lf);
      separated = separated && fast.rounds < classic.rounds;
    }
  }
  EXPECT_TRUE(separated);
}

TEST(FastSv, SubsetForestRestrictsEdges) {
  Executor ex(4);
  Workspace ws;
  // A square 0-1-2-3-0 plus diagonal; restrict to the square only.
  EdgeList g(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}});
  const std::vector<eid> subset = {0, 1, 2, 3};
  const SpanningForest forest =
      sv_spanning_forest(ex, ws, g.n, g.edges, subset, SvMode::kFastSV);
  EXPECT_EQ(forest.num_components, 1u);
  EXPECT_EQ(forest.tree_edges.size(), 3u);
  for (const eid e : forest.tree_edges) {
    EXPECT_TRUE(std::find(subset.begin(), subset.end(), e) != subset.end());
  }
}

TEST(FastSv, LongPathStressesShortcutting) {
  Executor ex(4);
  Workspace ws;
  const EdgeList g = gen::path(20000);
  SvStats stats;
  std::vector<vid> labels(g.n);
  connected_components_sv(ex, ws, g.n, g.edges, labels, SvMode::kFastSV,
                          &stats);
  for (const vid l : labels) ASSERT_EQ(l, 0u);
}

}  // namespace
}  // namespace parbcc
