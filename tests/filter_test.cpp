#include <gtest/gtest.h>

#include <algorithm>

#include "connectivity/shiloach_vishkin.hpp"
#include "core/bcc.hpp"
#include "engines.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "paper/sv_tree.hpp"
#include "scan/compact.hpp"
#include "spanning/bfs_tree.hpp"
#include "test_util.hpp"
#include "util/thread_pool.hpp"

namespace parbcc {
namespace {

/// The BFS root of every single-root tree below.
constexpr vid kRoot = 0;

/// Lemma 1: endpoints of a spanning-forest edge of G - T have no
/// ancestral relationship when T is a BFS tree.
TEST(FilterLemmas, ForestEdgesHaveNoAncestralRelation) {
  Executor ex(4);
  Workspace ws;
  for (const int seed : {1, 2, 3, 4}) {
    const EdgeList g = gen::random_connected_gnm(500, 2500, seed);
    const Csr csr = Csr::build(ex, ws, g);
    const BfsTree bfs = bfs_tree(ex, ws, csr, {&kRoot, 1});

    std::vector<std::uint8_t> in_tree(g.m(), 0);
    for (vid v = 1; v < g.n; ++v) in_tree[bfs.parent_edge[v]] = 1;
    std::vector<eid> nontree;
    pack_indices(ex, ws, g.m(),
                 [&](std::size_t e) { return in_tree[e] == 0; }, nontree);
    const SpanningForest forest =
        sv_spanning_forest(ex, ws, g.n, g.edges, nontree);

    // Ancestry via a simple ancestor-walk (levels are short).
    const auto is_ancestor = [&](vid anc, vid v) {
      while (v != 0 && v != anc) v = bfs.parent[v];
      return v == anc;
    };
    for (const eid e : forest.tree_edges) {
      const vid u = g.edges[e].u;
      const vid v = g.edges[e].v;
      EXPECT_FALSE(is_ancestor(u, v)) << "edge " << e;
      EXPECT_FALSE(is_ancestor(v, u)) << "edge " << e;
    }
  }
}

/// Theorem 2 corollary: #BCC of a bridgeless graph == number of
/// nontrivial components of F (two BFS runs).  We use cacti, where
/// every block is a cycle, so there are no bridges.
TEST(FilterLemmas, TwoBfsCountsBlocksOnBridgelessGraphs) {
  Executor ex(2);
  Workspace ws;
  for (const int seed : {10, 11, 12}) {
    const vid blocks = 40;
    const EdgeList g = gen::random_cactus(blocks, 7, seed);
    const Csr csr = Csr::build(ex, ws, g);
    const BfsTree bfs = bfs_tree(ex, ws, csr, {&kRoot, 1});
    std::vector<std::uint8_t> in_tree(g.m(), 0);
    for (vid v = 1; v < g.n; ++v) in_tree[bfs.parent_edge[v]] = 1;
    std::vector<eid> nontree;
    pack_indices(ex, ws, g.m(),
                 [&](std::size_t e) { return in_tree[e] == 0; }, nontree);
    const SpanningForest forest =
        sv_spanning_forest(ex, ws, g.n, g.edges, nontree);
    // Nontrivial components of F = components that own a forest edge.
    std::vector<std::uint8_t> nontrivial(g.n, 0);
    for (const eid e : forest.tree_edges) nontrivial[forest.comp[g.edges[e].u]] = 1;
    vid count = 0;
    for (vid v = 0; v < g.n; ++v) count += nontrivial[v];
    EXPECT_EQ(count, blocks);
  }
}

/// The filtering bound from §4: at least max(m - 2(n-1), 0) edges are
/// excluded from the TV run.
TEST(FilterLemmas, FilterRemovesAtLeastTheGuaranteedCount) {
  Executor ex(4);
  Workspace ws;
  const vid n = 400;
  for (const eid m : {eid{800}, eid{2000}, eid{6000}}) {
    const EdgeList g = gen::random_connected_gnm(n, m, 3);
    const Csr csr = Csr::build(ex, ws, g);
    const BfsTree bfs = bfs_tree(ex, ws, csr, {&kRoot, 1});
    std::vector<std::uint8_t> in_tree(g.m(), 0);
    for (vid v = 1; v < g.n; ++v) in_tree[bfs.parent_edge[v]] = 1;
    std::vector<eid> nontree;
    pack_indices(ex, ws, g.m(),
                 [&](std::size_t e) { return in_tree[e] == 0; }, nontree);
    const SpanningForest forest =
        sv_spanning_forest(ex, ws, g.n, g.edges, nontree);
    const eid kept = (n - 1) + static_cast<eid>(forest.tree_edges.size());
    EXPECT_LE(kept, 2 * (n - 1));
    EXPECT_GE(m - kept, m >= 2 * (n - 1) ? m - 2 * (n - 1) : 0);
  }
}

/// End-to-end: TV-filter equals Tarjan on graphs dense enough that
/// most edges are filtered.
TEST(FilterEndToEnd, DenseGraphsMatchSequential) {
  Executor ex(4);
  for (const int seed : {5, 6}) {
    const EdgeList g = gen::dense_retain(120, 700, seed);
    const BccResult par =
        testutil::solve(ex, g, paper::Algorithm::kTvFilter);
    const testutil::RefBcc ref = testutil::reference_bcc(g);
    ASSERT_EQ(par.num_components, ref.count);
    EXPECT_TRUE(testutil::same_partition(par.edge_component, ref.edge_comp));
  }
}

/// Pathological case the paper discusses: a chain (d = O(n)).  Slow
/// for BFS but must stay correct.
TEST(FilterEndToEnd, ChainGraphPathologicalDiameter) {
  Executor ex(4);
  const EdgeList g = gen::path(20000);
  const BccResult r = testutil::solve(ex, g, paper::Algorithm::kTvFilter);
  EXPECT_EQ(r.num_components, g.m());
  EXPECT_EQ(r.bridges.size(), g.m());
}

/// Multigraph corner: a parallel copy of a tree edge must land in its
/// twin's component even though it is excluded from F.
TEST(FilterEndToEnd, ParallelEdgesHandled) {
  Executor ex(2);
  // Square plus doubled edge (0,1) plus doubled diagonal candidate.
  EdgeList g(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 1}, {1, 3}, {1, 3}});
  const BccResult par =
      testutil::solve(ex, g, paper::Algorithm::kTvFilter);
  const testutil::RefBcc ref = testutil::reference_bcc(g);
  ASSERT_EQ(par.num_components, ref.count);
  EXPECT_TRUE(testutil::same_partition(par.edge_component, ref.edge_comp));
}

}  // namespace
}  // namespace parbcc
