#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>

#include "dfs_tour_positions.hpp"
#include "eulertour/tree_computations.hpp"
#include "forest.hpp"
#include "graph/generators.hpp"
#include "paper/euler_tour.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace parbcc {
namespace {

/// Random tree on n vertices (uniform attachment), returned as an edge
/// list whose edges are exactly the tree edges.
EdgeList random_tree(vid n, std::uint64_t seed) {
  EdgeList g;
  g.n = n;
  Xoshiro256 rng(seed);
  for (vid v = 1; v < n; ++v) {
    g.add_edge(static_cast<vid>(rng.below(v)), v);
  }
  return g;
}

std::vector<eid> all_edge_ids(const EdgeList& g) {
  std::vector<eid> ids(g.m());
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

/// Sequential recursive DFS reference for pre/sub/parent.
struct DfsRef {
  std::vector<vid> parent, pre, sub, depth;

  explicit DfsRef(const EdgeList& g, vid root) {
    std::vector<std::vector<vid>> adj(g.n);
    for (const Edge& e : g.edges) {
      adj[e.u].push_back(e.v);
      adj[e.v].push_back(e.u);
    }
    parent.assign(g.n, kNoVertex);
    pre.assign(g.n, 0);
    sub.assign(g.n, 1);
    depth.assign(g.n, 0);
    vid counter = 1;
    parent[root] = root;
    std::function<void(vid)> dfs = [&](vid v) {
      pre[v] = counter++;
      for (const vid w : adj[v]) {
        if (parent[w] == kNoVertex) {
          parent[w] = v;
          depth[w] = depth[v] + 1;
          dfs(w);
          sub[v] += sub[w];
        }
      }
    };
    dfs(root);
  }
};

/// pre/sub define a valid DFS numbering of the tree iff: root is 1,
/// sizes telescope, every child interval nests in its parent's.
void expect_consistent_preorder(const RootedSpanningTree& tree) {
  const vid n = tree.n();
  ASSERT_EQ(tree.pre[tree.root], 1u);
  ASSERT_EQ(tree.sub[tree.root], n);
  // Preorder is a permutation of 1..n.
  std::vector<bool> seen(n + 1, false);
  for (vid v = 0; v < n; ++v) {
    ASSERT_GE(tree.pre[v], 1u);
    ASSERT_LE(tree.pre[v], n);
    ASSERT_FALSE(seen[tree.pre[v]]);
    seen[tree.pre[v]] = true;
  }
  // Children intervals nest and sizes telescope.
  std::vector<vid> child_size_sum(n, 0);
  for (vid v = 0; v < n; ++v) {
    if (v == tree.root) continue;
    const vid p = tree.parent[v];
    child_size_sum[p] += tree.sub[v];
    ASSERT_GT(tree.pre[v], tree.pre[p]);
    ASSERT_LT(tree.pre[v] + tree.sub[v] - 1, tree.pre[p] + tree.sub[p]);
  }
  for (vid v = 0; v < n; ++v) {
    ASSERT_EQ(tree.sub[v], child_size_sum[v] + 1);
  }
}

class TourParam : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TourParam, CircuitIsASingleEulerianTour) {
  const auto [threads, n] = GetParam();
  Executor ex(threads);
  Workspace ws;
  const EdgeList tree = random_tree(n, n * 3 + 1);
  const auto tree_ids = all_edge_ids(tree);
  for (const ArcSort sort : {ArcSort::kSampleSort, ArcSort::kCountingSort}) {
    const EulerCircuit circuit =
        build_euler_circuit(ex, ws, tree.n, tree.edges, tree_ids, 0, sort);
    const std::size_t num_arcs = 2 * tree_ids.size();
    // Walking succ from head visits each arc exactly once, ends at Nil,
    // and consecutive arcs share the middle vertex.
    std::vector<bool> visited(num_arcs, false);
    vid a = circuit.head;
    std::size_t steps = 0;
    while (a != kNoVertex) {
      ASSERT_LT(a, num_arcs);
      ASSERT_FALSE(visited[a]);
      visited[a] = true;
      ++steps;
      const vid nxt = circuit.succ[a];
      if (nxt != kNoVertex) {
        const Edge& ea = tree.edges[tree_ids[a >> 1]];
        const Edge& en = tree.edges[tree_ids[nxt >> 1]];
        const vid head_of_a = (a & 1) ? ea.u : ea.v;
        const vid tail_of_n = (nxt & 1) ? en.v : en.u;
        ASSERT_EQ(head_of_a, tail_of_n);
      }
      a = nxt;
    }
    ASSERT_EQ(steps, num_arcs);
  }
}

TEST_P(TourParam, RootingMatchesSequentialDfsStructure) {
  const auto [threads, n] = GetParam();
  Executor ex(threads);
  Workspace ws;
  const EdgeList tree = random_tree(n, n * 7 + 5);
  const auto tree_ids = all_edge_ids(tree);
  for (const ListRanker ranker :
       {ListRanker::kSequential, ListRanker::kWyllie,
        ListRanker::kHelmanJaja}) {
    const RootedSpanningTree rooted = root_tree_via_euler_tour(
        ex, ws, tree.n, tree.edges, tree_ids, 0, ranker,
        ArcSort::kCountingSort);
    // Parent structure is root-determined, so it must match exactly.
    const DfsRef ref(tree, 0);
    EXPECT_EQ(rooted.parent, ref.parent);
    // pre/sub depend on adjacency order, so check structural
    // consistency rather than exact values.
    expect_consistent_preorder(rooted);
    // Subtree sizes are order-independent.
    EXPECT_EQ(rooted.sub, ref.sub);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, TourParam,
                         ::testing::Combine(::testing::Values(1, 2, 4, 8),
                                            ::testing::Values(2, 3, 10, 500,
                                                              5000)));

TEST(ArcSortEquivalence, BothOrdersYieldIdenticalTrees) {
  // At p = 1 the bucket scatter fills each source group in arc-id
  // order — exactly the sample sort's (source, arc id) key — so the
  // two circuits, and hence every rank and preorder number, are
  // bit-identical.  At p > 1 the bucket within-group order is arrival
  // order; parent links and subtree sizes are order-independent and
  // must still match exactly, while preorder stays a valid DFS
  // numbering for both.
  const EdgeList tree = random_tree(4000, 99);
  const auto tree_ids = all_edge_ids(tree);
  {
    Executor ex(1);
    Workspace ws;
    const RootedSpanningTree a = root_tree_via_euler_tour(
        ex, ws, tree.n, tree.edges, tree_ids, 0, ListRanker::kHelmanJaja,
        ArcSort::kSampleSort);
    const RootedSpanningTree b = root_tree_via_euler_tour(
        ex, ws, tree.n, tree.edges, tree_ids, 0, ListRanker::kHelmanJaja,
        ArcSort::kCountingSort);
    EXPECT_EQ(a.parent, b.parent);
    EXPECT_EQ(a.parent_edge, b.parent_edge);
    EXPECT_EQ(a.pre, b.pre);
    EXPECT_EQ(a.sub, b.sub);
  }
  for (const int threads : {4, 8}) {
    Executor ex(threads);
    Workspace ws;
    const RootedSpanningTree a = root_tree_via_euler_tour(
        ex, ws, tree.n, tree.edges, tree_ids, 0, ListRanker::kHelmanJaja,
        ArcSort::kSampleSort);
    const RootedSpanningTree b = root_tree_via_euler_tour(
        ex, ws, tree.n, tree.edges, tree_ids, 0, ListRanker::kHelmanJaja,
        ArcSort::kCountingSort);
    EXPECT_EQ(a.parent, b.parent);
    EXPECT_EQ(a.parent_edge, b.parent_edge);
    EXPECT_EQ(a.sub, b.sub);
    expect_consistent_preorder(a);
    expect_consistent_preorder(b);
  }
}

TEST(TreeComputations, LevelPipelineMatchesDfsReference) {
  for (const int threads : {1, 4}) {
    Executor ex(threads);
    Workspace ws;
    const EdgeList tree = random_tree(3000, 17);
    const DfsRef ref(tree, 0);
    const ChildrenCsr children = build_children(ex, ws, ref.parent, 0);
    const LevelStructure levels = build_levels(ex, children, 0);
    EXPECT_EQ(levels.depth, ref.depth);

    std::vector<vid> pre, sub;
    preorder_and_size(ex, children, levels, 0, pre, sub);
    EXPECT_EQ(sub, ref.sub);
    RootedSpanningTree tree_out;
    tree_out.root = 0;
    tree_out.parent = ref.parent;
    tree_out.pre = pre;
    tree_out.sub = sub;
    expect_consistent_preorder(tree_out);
  }
}

TEST(TreeComputations, PreorderFollowsChildListOrder) {
  // Known little tree: 0 -> {1, 2}, 1 -> {3}.
  Executor ex(1);
  Workspace ws;
  const std::vector<vid> parent = {0, 0, 0, 1};
  const ChildrenCsr children = build_children(ex, ws, parent, 0);
  const LevelStructure levels = build_levels(ex, children, 0);
  std::vector<vid> pre, sub;
  preorder_and_size(ex, children, levels, 0, pre, sub);
  EXPECT_EQ(sub, (std::vector<vid>{4, 2, 1, 1}));
  EXPECT_EQ(pre[0], 1u);
  // Single-threaded build keeps child order 1, 2 (insertion order):
  EXPECT_EQ(pre[1], 2u);
  EXPECT_EQ(pre[3], 3u);
  EXPECT_EQ(pre[2], 4u);
}

TEST(TreeComputations, SubtreeMinMaxAggregates) {
  Executor ex(2);
  Workspace ws;
  // Path 0 - 1 - 2 - 3 rooted at 0.
  const std::vector<vid> parent = {0, 0, 1, 2};
  const ChildrenCsr children = build_children(ex, ws, parent, 0);
  const LevelStructure levels = build_levels(ex, children, 0);
  std::vector<vid> val = {5, 9, 2, 7};
  subtree_min(ex, children, levels, val.data());
  EXPECT_EQ(val, (std::vector<vid>{2, 2, 2, 7}));
  val = {5, 9, 2, 7};
  subtree_max(ex, children, levels, val.data());
  EXPECT_EQ(val, (std::vector<vid>{9, 9, 7, 7}));
}

TEST(TreeComputations, DfsTourPositionsMatchSimulatedDfs) {
  Executor ex(2);
  Workspace ws;
  const EdgeList tree = random_tree(500, 31);
  const DfsRef ref(tree, 0);
  const ChildrenCsr children = build_children(ex, ws, ref.parent, 0);
  const LevelStructure levels = build_levels(ex, children, 0);
  RootedSpanningTree rooted;
  rooted.root = 0;
  rooted.parent = ref.parent;
  preorder_and_size(ex, children, levels, 0, rooted.pre, rooted.sub);
  const DfsTourPositions pos = dfs_tour_positions(ex, rooted, levels.depth);

  // Simulate the DFS in child-list order and record arc indices.
  std::vector<vid> down(tree.n, kNoVertex), up(tree.n, kNoVertex);
  vid clock = 0;
  std::function<void(vid)> dfs = [&](vid v) {
    for (const vid c : children.children(v)) {
      down[c] = clock++;
      dfs(c);
      up[c] = clock++;
    }
  };
  dfs(0);
  EXPECT_EQ(pos.down, down);
  EXPECT_EQ(pos.up, up);
  EXPECT_EQ(pos.down[0], kNoVertex);
}

TEST(EulerCircuit, RootWithoutTreeEdgeThrows) {
  Executor ex(1);
  Workspace ws;
  EdgeList tree(2, {{0, 1}});
  const std::vector<eid> ids = {0};
  // Vertex 5 does not exist / has no arcs: the two-vertex tree rooted
  // elsewhere must be rejected.
  EXPECT_THROW(
      build_euler_circuit(ex, ws, 6, tree.edges, ids, 5,
                          ArcSort::kCountingSort),
      std::invalid_argument);
}

TEST(RootTree, RejectsNonSpanningInput) {
  Executor ex(1);
  Workspace ws;
  EdgeList tree(4, {{0, 1}});
  const std::vector<eid> ids = {0};
  EXPECT_THROW(
      root_tree_via_euler_tour(ex, ws, 4, tree.edges, ids, 0),
      std::invalid_argument);
}

TEST(RootTree, SingleVertexTrivial) {
  Executor ex(2);
  Workspace ws;
  EdgeList tree(1, {});
  const RootedSpanningTree rooted =
      root_tree_via_euler_tour(ex, ws, 1, tree.edges, {}, 0);
  EXPECT_EQ(rooted.pre, (std::vector<vid>{1}));
  EXPECT_EQ(rooted.sub, (std::vector<vid>{1}));
  EXPECT_EQ(rooted.parent, (std::vector<vid>{0}));
}

}  // namespace
}  // namespace parbcc
