#include <gtest/gtest.h>

#include <map>

#include "connectivity/components.hpp"
#include "connectivity/union_find.hpp"
#include "core/bcc.hpp"
#include "eulertour/tree_computations.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "paper/aux_graph.hpp"
#include "paper/lowhigh.hpp"
#include "paper/solve.hpp"
#include "paper/tv_core.hpp"
#include "spanning/bfs_tree.hpp"
#include "test_util.hpp"
#include "util/thread_pool.hpp"

/// Direct checks of the paper's formal claims (§2 and §4), on small
/// random graphs against brute-force definitions.

namespace parbcc {
namespace {

/// The BFS root of every single-root tree below.
constexpr vid kRoot = 0;

struct TvPieces {
  Workspace ws;
  Csr csr;
  RootedSpanningTree tree;
  ChildrenCsr children;
  LevelStructure levels;
  std::vector<vid> owner;
  LowHigh lh;
  AuxGraph aux;

  TvPieces(Executor& ex, const EdgeList& g)
      : csr(Csr::build(ex, ws, g)) {
    tree.root = 0;
    const BfsTree bfs = bfs_tree(ex, ws, csr, {&tree.root, 1});
    EXPECT_EQ(bfs.reached, g.n) << "fixture wants connected graphs";
    tree.parent = bfs.parent;
    tree.parent_edge = bfs.parent_edge;
    children = build_children(ex, ws, tree.parent, 0);
    levels = build_levels(ex, children, 0);
    preorder_and_size(ex, children, levels, 0, tree.pre, tree.sub);
    owner = make_tree_owner(ex, g.m(), tree);
    lh = compute_low_high_levels(ex, g.edges, tree, owner, children, levels);
    aux = build_aux_graph(ex, ws, g.edges, tree, owner, lh);
  }

  /// Inverse of the aux-id mapping: aux vertex -> original edge id.
  std::map<vid, eid> aux_to_edge(const EdgeList& g) const {
    std::map<vid, eid> back;
    for (eid e = 0; e < g.m(); ++e) back[aux.aux_id[e]] = e;
    return back;
  }
};

class FidelityParam : public ::testing::TestWithParam<int> {};

/// Soundness of R''c: every pair generated by conditions 1-3 links two
/// edges of the same biconnected component (R''c is a subset of R*c).
TEST_P(FidelityParam, RelationPairsStayInsideBlocks) {
  Executor ex(2);
  const EdgeList g = gen::random_connected_gnm(150, 400, GetParam());
  const TvPieces tv(ex, g);
  const auto back = tv.aux_to_edge(g);
  const testutil::RefBcc ref = testutil::reference_bcc(g);
  for (const Edge& pair : tv.aux.edges) {
    const eid ea = back.at(pair.u);
    const eid eb = back.at(pair.v);
    ASSERT_EQ(ref.edge_comp[ea], ref.edge_comp[eb])
        << "aux pair crosses blocks: edges " << ea << ", " << eb;
  }
}

/// Completeness: the transitive closure of R''c is exactly R*c
/// (Tarjan-Vishkin's central theorem) — the aux components equal the
/// biconnected components.
TEST_P(FidelityParam, TransitiveClosureEqualsBlockRelation) {
  Executor ex(2);
  const EdgeList g = gen::random_connected_gnm(150, 400, GetParam() + 100);
  const TvPieces tv(ex, g);
  const auto back = tv.aux_to_edge(g);
  UnionFind uf(tv.aux.num_vertices);
  for (const Edge& pair : tv.aux.edges) uf.unite(pair.u, pair.v);
  std::vector<vid> labels(g.m());
  for (eid e = 0; e < g.m(); ++e) labels[e] = uf.find(tv.aux.aux_id[e]);
  const testutil::RefBcc ref = testutil::reference_bcc(g);
  normalize_labels(labels);
  EXPECT_TRUE(testutil::same_partition(labels, ref.edge_comp));
}

/// Theorem 1's resource bound: |E'| <= 3m after compaction and the
/// aux-vertex mapping is injective into [0, n + #nontree).
TEST_P(FidelityParam, Theorem1Bounds) {
  Executor ex(2);
  const EdgeList g = gen::random_connected_gnm(200, 700, GetParam() + 200);
  const TvPieces tv(ex, g);
  EXPECT_LE(tv.aux.edges.size(), 3ull * g.m());
  EXPECT_EQ(tv.aux.num_vertices, g.n + (g.m() - (g.n - 1)));
  std::vector<std::uint8_t> seen(tv.aux.num_vertices, 0);
  for (const vid id : tv.aux.aux_id) {
    ASSERT_LT(id, tv.aux.num_vertices);
    ASSERT_FALSE(seen[id]);
    seen[id] = 1;
  }
}

/// Theorem 2: the edges of each connected component of G - T lie in a
/// single biconnected component (T a BFS tree).
TEST_P(FidelityParam, Theorem2ComponentsOfGMinusT) {
  Executor ex(2);
  Workspace ws;
  const EdgeList g = gen::random_connected_gnm(200, 800, GetParam() + 300);
  const Csr csr = Csr::build(ex, ws, g);
  const BfsTree bfs = bfs_tree(ex, ws, csr, {&kRoot, 1});
  std::vector<std::uint8_t> in_tree(g.m(), 0);
  for (vid v = 1; v < g.n; ++v) in_tree[bfs.parent_edge[v]] = 1;

  // Components of G - T via union-find over nontree edges.
  UnionFind uf(g.n);
  for (eid e = 0; e < g.m(); ++e) {
    if (!in_tree[e]) uf.unite(g.edges[e].u, g.edges[e].v);
  }
  const testutil::RefBcc ref = testutil::reference_bcc(g);
  std::map<vid, vid> block_of_component;
  for (eid e = 0; e < g.m(); ++e) {
    if (in_tree[e]) continue;
    const vid comp = uf.find(g.edges[e].u);
    const auto [it, inserted] =
        block_of_component.emplace(comp, ref.edge_comp[e]);
    ASSERT_EQ(it->second, ref.edge_comp[e])
        << "G - T component spans two blocks at edge " << e;
  }
}

/// Condition 1 in isolation: every nontree edge (u,v) with
/// pre(v) < pre(u) shares a block with the tree edge (u, p(u)) — this
/// is the fact TV-filter's final relabeling step relies on.
TEST_P(FidelityParam, Condition1HoldsForEveryNontreeEdge) {
  Executor ex(2);
  const EdgeList g = gen::random_connected_gnm(150, 600, GetParam() + 400);
  const TvPieces tv(ex, g);
  const testutil::RefBcc ref = testutil::reference_bcc(g);
  for (eid e = 0; e < g.m(); ++e) {
    if (tv.owner[e] != kNoVertex) continue;
    const vid u = g.edges[e].u;
    const vid v = g.edges[e].v;
    const vid hi = tv.tree.pre[u] > tv.tree.pre[v] ? u : v;
    const eid tree_edge = tv.tree.parent_edge[hi];
    ASSERT_EQ(ref.edge_comp[e], ref.edge_comp[tree_edge]);
  }
}

/// The low/high interval test behind condition 3 agrees with the
/// brute-force articulation relation: child subtree escapes its
/// parent's subtree iff the two tree edges share a block.
TEST_P(FidelityParam, Condition3MatchesBlockSharing) {
  Executor ex(2);
  const EdgeList g = gen::random_connected_gnm(120, 360, GetParam() + 500);
  const TvPieces tv(ex, g);
  const testutil::RefBcc ref = testutil::reference_bcc(g);
  for (vid u = 0; u < g.n; ++u) {
    if (u == tv.tree.root) continue;
    const vid parent = tv.tree.parent[u];
    if (parent == tv.tree.root) continue;
    const bool cond3 =
        tv.lh.low[u] < tv.tree.pre[parent] ||
        tv.lh.high[u] >= tv.tree.pre[parent] + tv.tree.sub[parent];
    const bool same_block = ref.edge_comp[tv.tree.parent_edge[u]] ==
                            ref.edge_comp[tv.tree.parent_edge[parent]];
    // Condition 3 firing always implies same block.  (The converse
    // goes through conditions 1-2, so only this direction is exact.)
    if (cond3) {
      ASSERT_TRUE(same_block) << "condition 3 over-merged at " << u;
    }
  }
}

/// The paper-faithful TV-SMP configuration — sample-sorted arcs and
/// the materialized auxiliary graph solved with Shiloach-Vishkin —
/// stays exercised end to end now that the engineered defaults
/// (bucket scatter, fused aux kernel) have replaced it, and agrees
/// with the engineered-default solve on the same input.
TEST_P(FidelityParam, PaperFaithfulTvSmpPathSolvesCorrectly) {
  BccContext ctx(4);
  const EdgeList g = gen::random_connected_gnm(200, 700, GetParam() + 600);
  paper::PaperOptions faithful;
  faithful.algorithm = paper::Algorithm::kTvSmp;
  faithful.arc_sort = ArcSort::kSampleSort;
  faithful.aux_mode = AuxMode::kMaterialized;
  const BccResult r = paper::solve(ctx, g, faithful);
  const testutil::RefBcc ref = testutil::reference_bcc(g);
  EXPECT_TRUE(testutil::same_partition(r.edge_component, ref.edge_comp));

  paper::PaperOptions engineered;
  engineered.algorithm = paper::Algorithm::kTvSmp;
  const BccResult f = paper::solve(ctx, g, engineered);
  EXPECT_EQ(r.num_components, f.num_components);
  EXPECT_TRUE(testutil::same_partition(r.edge_component, f.edge_component));
}

INSTANTIATE_TEST_SUITE_P(Sweep, FidelityParam, ::testing::Range(1, 9));

}  // namespace
}  // namespace parbcc
