#include <gtest/gtest.h>

#include "chains.hpp"
#include "core/bcc.hpp"
#include "engines.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"
#include "util/thread_pool.hpp"

namespace parbcc {
namespace {

TEST(Chains, CycleIsOneCycleChainNoCuts) {
  const ChainDecomposition cd = chain_decomposition(gen::cycle(8));
  EXPECT_EQ(cd.num_chains, 1u);
  EXPECT_EQ(cd.chain_is_cycle[0], 1);
  EXPECT_TRUE(cd.bridges.empty());
  for (const auto a : cd.is_articulation) EXPECT_EQ(a, 0);
}

TEST(Chains, PathIsAllBridges) {
  const EdgeList g = gen::path(5);
  const ChainDecomposition cd = chain_decomposition(g);
  EXPECT_EQ(cd.num_chains, 0u);
  EXPECT_EQ(cd.bridges.size(), 4u);
  EXPECT_EQ(cd.is_articulation,
            (std::vector<std::uint8_t>{0, 1, 1, 1, 0}));
}

TEST(Chains, TwoTrianglesSharedVertex) {
  EdgeList g(5, {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 2}});
  const ChainDecomposition cd = chain_decomposition(g);
  EXPECT_EQ(cd.num_chains, 2u);
  EXPECT_TRUE(cd.bridges.empty());
  // Exactly vertex 2 articulates (second chain is a cycle rooted there).
  EXPECT_EQ(cd.is_articulation,
            (std::vector<std::uint8_t>{0, 0, 1, 0, 0}));
}

TEST(Chains, EveryEdgeCoveredOnBiconnectedGraphs) {
  for (const EdgeList& g :
       {gen::complete(10), gen::grid_torus(4, 5), gen::wheel(9)}) {
    const ChainDecomposition cd = chain_decomposition(g);
    EXPECT_TRUE(cd.bridges.empty());
    for (const vid c : cd.chain_of_edge) EXPECT_NE(c, kNoVertex);
    // Exactly one cycle chain (the first) on a biconnected graph.
    vid cycles = 0;
    for (const auto f : cd.chain_is_cycle) cycles += f;
    EXPECT_EQ(cycles, 1u);
    EXPECT_EQ(cd.num_chains, g.m() - g.n + 1);
  }
}

class ChainsParam : public ::testing::TestWithParam<int> {};

TEST_P(ChainsParam, MatchesBruteForceOnRandomGraphs) {
  const int seed = GetParam();
  // Sparse-to-medium simple random graphs, possibly disconnected.
  const EdgeList g = gen::random_gnm(150, 100 + 40 * seed, seed);
  const ChainDecomposition cd = chain_decomposition(g);
  EXPECT_EQ(cd.bridges, testutil::brute_force_bridges(g));
  EXPECT_EQ(cd.is_articulation, testutil::brute_force_articulation(g));
}

INSTANTIATE_TEST_SUITE_P(Sweep, ChainsParam, ::testing::Range(0, 12));

TEST(Chains, DisconnectedComponentsIndependent) {
  // Triangle + path + isolated vertex.
  EdgeList g(8, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 6}});
  const ChainDecomposition cd = chain_decomposition(g);
  EXPECT_EQ(cd.num_chains, 1u);
  EXPECT_EQ(cd.bridges.size(), 3u);
  EXPECT_EQ(cd.is_articulation[4], 1);
  EXPECT_EQ(cd.is_articulation[5], 1);
  EXPECT_EQ(cd.is_articulation[0], 0);
  EXPECT_EQ(cd.is_articulation[7], 0);
}

TEST(Chains, CrossChecksTheParallelPipelinesAtScale) {
  // Chains are an O(n + m) oracle, so this runs at sizes the deletion
  // brute force cannot: compare cut reports against every engine on a
  // 50k-vertex graph.
  const EdgeList g = gen::random_connected_gnm(50000, 120000, 4);
  const ChainDecomposition cd = chain_decomposition(g);
  Executor ex(4);
  for (const Engine algorithm :
       {Engine(BccAlgorithm::kSequential), Engine(paper::Algorithm::kTvSmp),
        Engine(paper::Algorithm::kTvOpt), Engine(paper::Algorithm::kTvFilter),
        Engine(BccAlgorithm::kFastBcc)}) {
    const BccResult r = testutil::solve(ex, g, algorithm);
    ASSERT_EQ(r.bridges, cd.bridges) << to_string(algorithm);
    ASSERT_EQ(r.is_articulation, cd.is_articulation) << to_string(algorithm);
  }
}

TEST(Chains, ChainCountIdentity) {
  // #chains == m - n + #components for any simple graph (every nontree
  // edge starts exactly one chain).
  for (const int seed : {1, 2, 3}) {
    const EdgeList g = gen::random_gnm(200, 400, seed);
    const ChainDecomposition cd = chain_decomposition(g);
    const vid comps = testutil::component_count(g);
    EXPECT_EQ(cd.num_chains, g.m() - g.n + comps);
  }
}

}  // namespace
}  // namespace parbcc
