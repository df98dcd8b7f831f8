#include <gtest/gtest.h>

#include <algorithm>

#include "core/articulation.hpp"
#include "core/hopcroft_tarjan.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"
#include "util/thread_pool.hpp"

namespace parbcc {
namespace {

BccResult run(const EdgeList& g) {
  Executor ex(1);
  Workspace ws;
  const Csr csr = Csr::build(ex, ws, g);
  BccResult r = hopcroft_tarjan_bcc(g, csr, /*cut_info=*/false);
  annotate_cut_info(ex, ws, g, r);
  return r;
}

TEST(HopcroftTarjan, TriangleIsOneComponent) {
  const BccResult r = run(gen::cycle(3));
  EXPECT_EQ(r.num_components, 1u);
  EXPECT_TRUE(r.bridges.empty());
  for (const auto a : r.is_articulation) EXPECT_EQ(a, 0);
}

TEST(HopcroftTarjan, PathIsAllBridges) {
  const EdgeList g = gen::path(6);
  const BccResult r = run(g);
  EXPECT_EQ(r.num_components, 5u);
  EXPECT_EQ(r.bridges.size(), 5u);
  // Interior vertices articulate; endpoints don't.
  EXPECT_EQ(r.is_articulation[0], 0);
  EXPECT_EQ(r.is_articulation[5], 0);
  for (vid v = 1; v < 5; ++v) EXPECT_EQ(r.is_articulation[v], 1);
}

TEST(HopcroftTarjan, StarCenterArticulates) {
  const BccResult r = run(gen::star(8));
  EXPECT_EQ(r.num_components, 7u);
  EXPECT_EQ(r.is_articulation[0], 1);
  for (vid v = 1; v < 8; ++v) EXPECT_EQ(r.is_articulation[v], 0);
}

TEST(HopcroftTarjan, CliqueChainCountsBlocksAndCuts) {
  const EdgeList g = gen::clique_chain(5, 4);
  const BccResult r = run(g);
  EXPECT_EQ(r.num_components, 5u);
  vid cuts = 0;
  for (const auto a : r.is_articulation) cuts += a;
  EXPECT_EQ(cuts, 4u);
  EXPECT_TRUE(r.bridges.empty());
}

TEST(HopcroftTarjan, CycleChainCountsBlocks) {
  const EdgeList g = gen::cycle_chain(7, 4);
  const BccResult r = run(g);
  EXPECT_EQ(r.num_components, 7u);
}

TEST(HopcroftTarjan, TorusIsBiconnected) {
  const BccResult r = run(gen::grid_torus(5, 6));
  EXPECT_EQ(r.num_components, 1u);
  for (const auto a : r.is_articulation) EXPECT_EQ(a, 0);
}

TEST(HopcroftTarjan, ParallelEdgesAreNeverBridges) {
  // Path 0-1-2 where edge (0,1) is doubled.
  EdgeList g(3, {{0, 1}, {1, 0}, {1, 2}});
  const BccResult r = run(g);
  EXPECT_EQ(r.num_components, 2u);
  EXPECT_EQ(r.edge_component[0], r.edge_component[1]);
  EXPECT_NE(r.edge_component[0], r.edge_component[2]);
  ASSERT_EQ(r.bridges.size(), 1u);
  EXPECT_EQ(r.bridges[0], 2u);
  EXPECT_EQ(r.is_articulation[1], 1);
}

TEST(HopcroftTarjan, DisconnectedGraphHandledNatively) {
  // Triangle {0,1,2} plus bridisolated pair {3,4} plus loner 5.
  EdgeList g(6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}});
  const BccResult r = run(g);
  EXPECT_EQ(r.num_components, 2u);
  EXPECT_EQ(r.edge_component[0], r.edge_component[1]);
  EXPECT_EQ(r.edge_component[0], r.edge_component[2]);
  EXPECT_NE(r.edge_component[0], r.edge_component[3]);
}

TEST(HopcroftTarjan, DeepPathDoesNotOverflowStack) {
  const EdgeList g = gen::path(2000000);
  Executor ex(1);
  Workspace ws;
  const Csr csr = Csr::build(ex, ws, g);
  const BccResult r = hopcroft_tarjan_bcc(g, csr, /*cut_info=*/false);
  EXPECT_EQ(r.num_components, g.m());
}

class SeqOracleParam : public ::testing::TestWithParam<int> {};

TEST_P(SeqOracleParam, MatchesRecursiveReferenceOnRandomGraphs) {
  const int seed = GetParam();
  const EdgeList g = gen::random_gnm(120, 240, seed);
  const BccResult r = run(g);
  const testutil::RefBcc ref = testutil::reference_bcc(g);
  EXPECT_EQ(r.num_components, ref.count);
  EXPECT_TRUE(testutil::same_partition(r.edge_component, ref.edge_comp));
}

TEST_P(SeqOracleParam, CutInfoMatchesBruteForce) {
  const int seed = GetParam();
  const EdgeList g = gen::random_gnm(60, 110, seed * 7 + 1);
  const BccResult r = run(g);
  const auto art = testutil::brute_force_articulation(g);
  EXPECT_EQ(r.is_articulation, art);
  EXPECT_EQ(r.bridges, testutil::brute_force_bridges(g));
}

INSTANTIATE_TEST_SUITE_P(Sweep, SeqOracleParam,
                         ::testing::Range(0, 20));

TEST(HopcroftTarjan, LabelsAreContiguous) {
  const EdgeList g = gen::random_connected_gnm(500, 800, 3);
  const BccResult r = run(g);
  std::vector<bool> used(r.num_components, false);
  for (const vid c : r.edge_component) {
    ASSERT_LT(c, r.num_components);
    used[c] = true;
  }
  EXPECT_TRUE(std::all_of(used.begin(), used.end(), [](bool b) { return b; }));
}

}  // namespace
}  // namespace parbcc
