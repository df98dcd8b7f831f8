#include <gtest/gtest.h>

#include "connectivity/components.hpp"
#include "connectivity/union_find.hpp"
#include "core/bcc.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"
#include "two_edge_connected.hpp"
#include "util/thread_pool.hpp"

namespace parbcc {
namespace {

/// Oracle: delete brute-force bridges, then union-find.
std::vector<vid> brute_force_tecc(const EdgeList& g) {
  const auto bridges = testutil::brute_force_bridges(g);
  std::vector<std::uint8_t> is_bridge(g.m(), 0);
  for (const eid e : bridges) is_bridge[e] = 1;
  UnionFind uf(g.n);
  for (eid e = 0; e < g.m(); ++e) {
    if (!is_bridge[e] && g.edges[e].u != g.edges[e].v) {
      uf.unite(g.edges[e].u, g.edges[e].v);
    }
  }
  std::vector<vid> labels(g.n);
  for (vid v = 0; v < g.n; ++v) labels[v] = uf.find(v);
  normalize_labels(labels);
  return labels;
}

TEST(TwoEdgeConnected, PathSplitsCompletely) {
  Executor ex(2);
  const EdgeList g = gen::path(6);
  const TwoEdgeConnected r = two_edge_connected_components(ex, g);
  EXPECT_EQ(r.num_components, 6u);
  EXPECT_EQ(r.bridges.size(), 5u);
}

TEST(TwoEdgeConnected, CycleIsOneComponent) {
  Executor ex(2);
  const TwoEdgeConnected r =
      two_edge_connected_components(ex, gen::cycle(10));
  EXPECT_EQ(r.num_components, 1u);
  EXPECT_TRUE(r.bridges.empty());
}

TEST(TwoEdgeConnected, BarbellGroupsCliquesAndPath) {
  Executor ex(2);
  // Two 4-cliques joined by a 3-edge path: cliques are components, the
  // two interior path vertices are singletons.
  const EdgeList g = gen::barbell(4, 3);
  const TwoEdgeConnected r = two_edge_connected_components(ex, g);
  EXPECT_EQ(r.num_components, 4u);
  EXPECT_EQ(r.bridges.size(), 3u);
  // Clique vertices share one label.
  EXPECT_EQ(r.vertex_component[0], r.vertex_component[3]);
  EXPECT_NE(r.vertex_component[0], r.vertex_component[4]);
}

TEST(TwoEdgeConnected, CutVertexIsNotACutEdge) {
  Executor ex(2);
  // Two triangles sharing vertex 2: one articulation point, zero
  // bridges, hence a SINGLE 2-edge-connected component.
  EdgeList g(5, {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 2}});
  const TwoEdgeConnected r = two_edge_connected_components(ex, g);
  EXPECT_EQ(r.num_components, 1u);
  EXPECT_TRUE(r.bridges.empty());
}

TEST(TwoEdgeConnected, ParallelEdgeNeutralizesABridge) {
  Executor ex(2);
  EdgeList g(3, {{0, 1}, {0, 1}, {1, 2}});
  const TwoEdgeConnected r = two_edge_connected_components(ex, g);
  EXPECT_EQ(r.num_components, 2u);
  EXPECT_EQ(r.vertex_component[0], r.vertex_component[1]);
  EXPECT_NE(r.vertex_component[1], r.vertex_component[2]);
}

class TeccParam : public ::testing::TestWithParam<int> {};

TEST_P(TeccParam, MatchesBruteForceOnRandomGraphs) {
  const int seed = GetParam();
  const EdgeList g = gen::random_gnm(120, 160, seed);
  const auto expect = brute_force_tecc(g);
  for (const int p : {3, 12}) {
    Executor ex(p);
    const TwoEdgeConnected r = two_edge_connected_components(ex, g);
    auto got = r.vertex_component;
    normalize_labels(got);
    EXPECT_TRUE(testutil::same_partition(got, expect)) << "p=" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, TeccParam, ::testing::Range(0, 10));

TEST(TwoEdgeConnected, RejectsResultWithoutCutInfo) {
  Executor ex(1);
  const EdgeList g = gen::cycle(5);
  BccOptions opt;
  opt.compute_cut_info = false;
  const BccResult r = testutil::solve(ex, g, opt);
  EXPECT_THROW(two_edge_connected_components(ex, g, r),
               std::invalid_argument);
}

}  // namespace
}  // namespace parbcc
