#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "eulertour/tree_computations.hpp"
#include "graph/generators.hpp"
#include "paper/aux_graph.hpp"
#include "paper/lowhigh.hpp"
#include "paper/tv_core.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace parbcc {
namespace {

/// Hand-built rooted tree over an explicit edge list.
struct Manual {
  RootedSpanningTree tree;
  ChildrenCsr children;
  LevelStructure levels;
  std::vector<vid> owner;

  Manual(Executor& ex, const EdgeList& g, std::vector<vid> parent,
         std::vector<eid> parent_edge, vid root) {
  Workspace ws;
    tree.root = root;
    tree.parent = std::move(parent);
    tree.parent_edge = std::move(parent_edge);
    children = build_children(ex, ws, tree.parent, root);
    levels = build_levels(ex, children, root);
    preorder_and_size(ex, children, levels, root, tree.pre, tree.sub);
    owner = make_tree_owner(ex, g.m(), tree);
  }
};

/// BFS orientation of a connected graph wrapped in the Manual fixture.
Manual bfs_fixture(Executor& ex, const EdgeList& g) {
  std::vector<vid> parent(g.n, kNoVertex);
  std::vector<eid> parent_edge(g.n, kNoEdge);
  std::vector<std::vector<std::pair<vid, eid>>> adj(g.n);
  for (eid e = 0; e < g.m(); ++e) {
    adj[g.edges[e].u].push_back({g.edges[e].v, e});
    adj[g.edges[e].v].push_back({g.edges[e].u, e});
  }
  parent[0] = 0;
  std::vector<vid> queue = {0};
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const vid v = queue[i];
    for (const auto& [w, e] : adj[v]) {
      if (parent[w] == kNoVertex) {
        parent[w] = v;
        parent_edge[w] = e;
        queue.push_back(w);
      }
    }
  }
  return Manual(ex, g, std::move(parent), std::move(parent_edge), 0);
}

/// Connected variant of the fuzz-construction families
/// (fuzz_construction_test.cpp): bridges, cycles and cliques glued
/// onto existing vertices only, so a spanning tree always exists and
/// the tv_core kernels can run directly.
EdgeList fuzz_connected(std::uint64_t seed, int ops) {
  Xoshiro256 rng(seed);
  EdgeList g;
  g.n = 1;
  const auto fresh = [&] { return g.n++; };
  const auto anchor = [&] { return static_cast<vid>(rng.below(g.n)); };
  for (int k = 0; k < ops; ++k) {
    switch (rng.below(3)) {
      case 0: {  // bridge
        const vid a = anchor();
        g.add_edge(a, fresh());
        break;
      }
      case 1: {  // cycle
        const vid len = static_cast<vid>(3 + rng.below(6));
        const vid a = anchor();
        vid prev = a;
        for (vid i = 1; i < len; ++i) {
          const vid v = fresh();
          g.add_edge(prev, v);
          prev = v;
        }
        g.add_edge(prev, a);
        break;
      }
      default: {  // clique
        const vid size = static_cast<vid>(3 + rng.below(4));
        const vid a = anchor();
        std::vector<vid> members{a};
        for (vid i = 1; i < size; ++i) members.push_back(fresh());
        for (std::size_t i = 0; i < members.size(); ++i) {
          for (std::size_t j = i + 1; j < members.size(); ++j) {
            g.add_edge(members[i], members[j]);
          }
        }
        break;
      }
    }
  }
  return g;
}

TEST(AuxGraph, TrianglePlusPendantHandChecked) {
  Executor ex(1);
  Workspace ws;
  // Edges: 0:(0,1) tree, 1:(1,2) tree, 2:(2,3) tree, 3:(0,2) nontree.
  EdgeList g(4, {{0, 1}, {1, 2}, {2, 3}, {0, 2}});
  Manual fx(ex, g, /*parent=*/{0, 0, 1, 2}, /*parent_edge=*/{kNoEdge, 0, 1, 2},
            /*root=*/0);
  // Preorder along the path: 0->1, 1->2, 2->3, 3->4.
  ASSERT_EQ(fx.tree.pre, (std::vector<vid>{1, 2, 3, 4}));

  const LowHigh lh = compute_low_high_levels(ex, g.edges, fx.tree, fx.owner,
                                             fx.children, fx.levels);
  EXPECT_EQ(lh.low, (std::vector<vid>{1, 1, 1, 4}));
  EXPECT_EQ(lh.high, (std::vector<vid>{4, 4, 4, 4}));

  const AuxGraph aux = build_aux_graph(ex, ws, g.edges, fx.tree, fx.owner, lh);
  // Aux ids: tree edge of vertex v -> v; the single nontree edge -> 4.
  EXPECT_EQ(aux.num_vertices, 5u);
  EXPECT_EQ(aux.aux_id, (std::vector<vid>{1, 2, 3, 4}));
  // Expected links: condition 1 pairs nontree (0,2) with tree edge of
  // 2; condition 3 pairs tree edges of 2 and 1 (low(2)=1 < pre(1)=2).
  // The bridge (2,3) gets no link.
  std::set<std::pair<vid, vid>> got;
  for (const Edge& e : aux.edges) {
    got.insert({std::min(e.u, e.v), std::max(e.u, e.v)});
  }
  const std::set<std::pair<vid, vid>> expect = {{2, 4}, {1, 2}};
  EXPECT_EQ(got, expect);
}

TEST(AuxGraph, ConditionCountsOnTheCycle) {
  Executor ex(1);
  Workspace ws;
  // Cycle 0-1-2-3-0: tree path + one closing nontree edge.
  EdgeList g(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  Manual fx(ex, g, {0, 0, 1, 2}, {kNoEdge, 0, 1, 2}, 0);
  const LowHigh lh = compute_low_high_levels(ex, g.edges, fx.tree, fx.owner,
                                             fx.children, fx.levels);
  const AuxGraph aux = build_aux_graph(ex, ws, g.edges, fx.tree, fx.owner, lh);
  // Condition 1 once (the closing edge), condition 2 zero times (3 is
  // a descendant of 0? no — 0 is root and ancestor of all: related),
  // condition 3 for tree edges of 2 and 3 (their subtrees reach back
  // to preorder 1).
  EXPECT_EQ(aux.edges.size(), 3u);
}

TEST(AuxGraph, MappingIsInjective) {
  Executor ex(4);
  Workspace ws;
  const EdgeList g = gen::random_connected_gnm(300, 900, 4);
  Manual fx = bfs_fixture(ex, g);
  const LowHigh lh = compute_low_high_levels(ex, g.edges, fx.tree, fx.owner,
                                             fx.children, fx.levels);
  const AuxGraph aux = build_aux_graph(ex, ws, g.edges, fx.tree, fx.owner, lh);

  // One-to-one: distinct edges get distinct aux ids, tree edges below
  // n, nontree at or above n (Theorem 1's mapping).
  std::set<vid> ids(aux.aux_id.begin(), aux.aux_id.end());
  EXPECT_EQ(ids.size(), g.m());
  for (eid e = 0; e < g.m(); ++e) {
    if (fx.owner[e] != kNoVertex) {
      EXPECT_LT(aux.aux_id[e], g.n);
    } else {
      EXPECT_GE(aux.aux_id[e], g.n);
      EXPECT_LT(aux.aux_id[e], aux.num_vertices);
    }
  }
  // Every nontree edge produces at least its condition-1 link, and the
  // staging bound holds.
  EXPECT_GE(aux.edges.size(), g.m() - (g.n - 1));
  EXPECT_LE(aux.edges.size(), 3ull * g.m());
  // All endpoints in range.
  for (const Edge& e : aux.edges) {
    EXPECT_LT(e.u, aux.num_vertices);
    EXPECT_LT(e.v, aux.num_vertices);
  }
}

/// Property suite for the fused kernel: on every fuzz-construction
/// family and SPMD width, the fused route's labels equal the
/// materialized route's — exactly, not merely as a partition, because
/// both contract each component to its minimum aux id.
class FusedVsMaterialized
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FusedVsMaterialized, IdenticalLabelsOnFuzzFamilies) {
  const auto [threads, seed] = GetParam();
  Executor ex(threads);
  Workspace ws;
  const EdgeList g =
      fuzz_connected(static_cast<std::uint64_t>(seed) * 77 + 5, 40);
  Manual fx = bfs_fixture(ex, g);
  const std::vector<vid> mat = tv_label_edges(
      ex, ws, g.edges, fx.tree, fx.owner, LowHighMethod::kLevelSweep,
      &fx.children, &fx.levels, SvMode::kFastSV, AuxMode::kMaterialized);
  const std::vector<vid> fused = tv_label_edges(
      ex, ws, g.edges, fx.tree, fx.owner, LowHighMethod::kLevelSweep,
      &fx.children, &fx.levels, SvMode::kFastSV, AuxMode::kFused);
  EXPECT_EQ(fused, mat);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FusedVsMaterialized,
                         ::testing::Combine(::testing::Values(1, 4, 12),
                                            ::testing::Range(0, 8)));

/// The fused kernel's telemetry is consistent with the materialized
/// graph it replaces: |V'| matches, the spanning hook count is
/// |V'| - #components of G', and every label is a component minimum.
TEST(FusedAux, StatsMatchMaterializedStructure) {
  Executor ex(4);
  Workspace ws;
  const EdgeList g = fuzz_connected(4242, 60);
  Manual fx = bfs_fixture(ex, g);
  const LowHigh lh = compute_low_high_levels(ex, g.edges, fx.tree, fx.owner,
                                             fx.children, fx.levels);
  const AuxGraph aux = build_aux_graph(ex, ws, g.edges, fx.tree, fx.owner, lh);
  FusedAuxStats stats;
  const std::vector<vid> labels =
      fused_aux_components(ex, ws, g.edges, fx.tree, fx.owner, lh,
                           /*trace=*/nullptr, &stats);
  EXPECT_EQ(stats.num_vertices, aux.num_vertices);
  // Labels are component minima: each label is <= the aux id it came
  // from, and label slots are fixed points (their own component min).
  std::set<vid> roots;
  for (eid e = 0; e < g.m(); ++e) {
    EXPECT_LE(labels[e], aux.aux_id[e]);
    roots.insert(labels[e]);
  }
  // Each successful hook merges two components, so V' splits into
  // |V'| - hooks components.  Every aux vertex except the root's
  // unused slot is some edge's image (the mapping is onto
  // V' \ {root}), so the distinct labels count all components but one.
  EXPECT_EQ(static_cast<std::uint64_t>(aux.num_vertices) - stats.hooks,
            static_cast<std::uint64_t>(roots.size()) + 1);
}

}  // namespace
}  // namespace parbcc
