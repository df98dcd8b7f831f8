#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/bcc.hpp"
#include "engines.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

/// Metamorphic properties: transformations of the input with a known
/// effect on the output.  These catch bugs that equivalence tests
/// against a single oracle can miss (the oracle could share them).

namespace parbcc {
namespace {

BccResult solve(const EdgeList& g, Engine engine) {
  Executor ex(3);
  return testutil::solve(ex, g, engine);
}

const Engine kParallel[] = {paper::Algorithm::kTvSmp, paper::Algorithm::kTvOpt,
                            paper::Algorithm::kTvFilter,
                            BccAlgorithm::kFastBcc};

TEST(Invariance, VertexRelabelingPermutesTheResult) {
  const EdgeList g = gen::random_connected_gnm(400, 1200, 5);
  Xoshiro256 rng(9);
  std::vector<vid> perm(g.n);
  std::iota(perm.begin(), perm.end(), 0);
  std::shuffle(perm.begin(), perm.end(), rng);

  EdgeList h;
  h.n = g.n;
  for (const Edge& e : g.edges) h.edges.push_back({perm[e.u], perm[e.v]});

  for (const auto algorithm : kParallel) {
    const BccResult rg = solve(g, algorithm);
    const BccResult rh = solve(h, algorithm);
    ASSERT_EQ(rg.num_components, rh.num_components) << to_string(algorithm);
    // Edge order is unchanged, so the partitions must coincide.
    EXPECT_TRUE(
        testutil::same_partition(rg.edge_component, rh.edge_component));
    // Articulation flags transport through the permutation.
    for (vid v = 0; v < g.n; ++v) {
      ASSERT_EQ(rg.is_articulation[v], rh.is_articulation[perm[v]]);
    }
  }
}

TEST(Invariance, EdgeOrderShufflePermutesLabelsConsistently) {
  const EdgeList g = gen::random_connected_gnm(300, 900, 6);
  Xoshiro256 rng(10);
  std::vector<eid> perm(g.m());
  std::iota(perm.begin(), perm.end(), 0);
  std::shuffle(perm.begin(), perm.end(), rng);

  EdgeList h;
  h.n = g.n;
  h.edges.resize(g.m());
  for (eid e = 0; e < g.m(); ++e) h.edges[perm[e]] = g.edges[e];

  for (const auto algorithm : kParallel) {
    const BccResult rg = solve(g, algorithm);
    const BccResult rh = solve(h, algorithm);
    ASSERT_EQ(rg.num_components, rh.num_components);
    std::vector<vid> transported(g.m());
    for (eid e = 0; e < g.m(); ++e) transported[e] = rh.edge_component[perm[e]];
    EXPECT_TRUE(testutil::same_partition(rg.edge_component, transported));
    EXPECT_EQ(rg.is_articulation, rh.is_articulation);
  }
}

TEST(Invariance, IntraBlockEdgeDoesNotDisturbOtherBlocks) {
  // Adding an edge between two vertices of one block must not change
  // the rest of the partition (the block absorbs the new edge).
  const EdgeList g = gen::clique_chain(6, 5);
  const BccResult base = solve(g, paper::Algorithm::kTvOpt);

  // Vertices 0 and 1 live in the first clique: re-add an absent pair?
  // Cliques are complete, so use a parallel edge — same block property.
  EdgeList h = g;
  h.add_edge(0, 2);
  for (const auto algorithm : kParallel) {
    const BccResult r = solve(h, algorithm);
    ASSERT_EQ(r.num_components, base.num_components);
    // Old edges keep their grouping.
    std::vector<vid> old_labels(r.edge_component.begin(),
                                r.edge_component.end() - 1);
    EXPECT_TRUE(testutil::same_partition(old_labels, base.edge_component));
    // The new edge joins edge 0's block (both are inside clique 0).
    EXPECT_EQ(r.edge_component.back(), r.edge_component[0]);
  }
}

TEST(Invariance, CrossBlockEdgeMergesExactlyThePathOfBlocks) {
  // A path of b blocks: adding an edge between the two extreme vertices
  // merges ALL blocks into one.
  const EdgeList g = gen::cycle_chain(5, 4);
  EdgeList h = g;
  h.add_edge(0, h.n - 1);
  for (const auto algorithm : kParallel) {
    const BccResult before = solve(g, algorithm);
    const BccResult after = solve(h, algorithm);
    ASSERT_EQ(before.num_components, 5u);
    ASSERT_EQ(after.num_components, 1u) << to_string(algorithm);
  }
}

TEST(Invariance, SubdividingABridgeAddsABlock) {
  // Replacing bridge (u,v) by u-w-v turns one bridge block into two.
  EdgeList g(6, {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 5}, {5, 3}});
  const BccResult before = solve(g, paper::Algorithm::kTvFilter);
  ASSERT_EQ(before.num_components, 3u);

  EdgeList h(7, {{0, 1}, {1, 2}, {2, 0}, {2, 6}, {6, 3}, {3, 4}, {4, 5},
                 {5, 3}});
  for (const auto algorithm : kParallel) {
    const BccResult after = solve(h, algorithm);
    ASSERT_EQ(after.num_components, 4u) << to_string(algorithm);
    EXPECT_EQ(after.bridges.size(), 2u);
  }
}

TEST(Invariance, DuplicatingABridgeRemovesIt) {
  const EdgeList g = gen::path(5);
  EdgeList h = g;
  h.add_edge(1, 2);  // double one interior edge
  for (const auto algorithm : kParallel) {
    const BccResult r = solve(h, algorithm);
    ASSERT_EQ(r.num_components, 4u) << to_string(algorithm);
    EXPECT_EQ(r.bridges.size(), 3u);
    EXPECT_EQ(r.edge_component[1], r.edge_component.back());
  }
}

TEST(Invariance, RepeatedSolvesAndWidthsNeverChangeThePartition) {
  // Work-stealing interleaves hooks and CAS claims differently on
  // every run and at every width; the partition must not care.  The
  // power-law instance is the adversarial case: its hub adjacency is
  // exactly what the nested regions re-split at run time.
  for (const EdgeList& g : {gen::random_power_law(1500, 9000, 2.1, 13),
                            gen::random_connected_gnm(800, 4000, 14)}) {
    for (const auto algorithm : kParallel) {
      Executor ex1(1);
      const BccResult base = testutil::solve(ex1, g, algorithm);
      for (const int threads : {1, 4, 12}) {
        BccContext ctx(threads);  // the second solve is a warm re-solve
        for (int rep = 0; rep < 2; ++rep) {
          const BccResult r = testutil::solve(ctx, g, algorithm);
          ASSERT_EQ(r.num_components, base.num_components)
              << to_string(algorithm) << " threads=" << threads
              << " rep=" << rep;
          EXPECT_TRUE(testutil::same_partition(r.edge_component,
                                               base.edge_component));
          EXPECT_EQ(r.is_articulation, base.is_articulation);
          EXPECT_EQ(r.bridges, base.bridges);
        }
      }
    }
  }
}

TEST(Invariance, ThreadCountNeverChangesThePartition) {
  const EdgeList g = gen::random_connected_gnm(500, 2500, 12);
  for (const auto algorithm : kParallel) {
    Executor ex1(1);
    const BccResult base = testutil::solve(ex1, g, algorithm);
    for (const int threads : {2, 3, 8}) {
      Executor ex(threads);
      const BccResult r = testutil::solve(ex, g, algorithm);
      ASSERT_EQ(r.num_components, base.num_components)
          << to_string(algorithm) << " threads=" << threads;
      EXPECT_TRUE(testutil::same_partition(r.edge_component,
                                           base.edge_component));
      EXPECT_EQ(r.is_articulation, base.is_articulation);
      EXPECT_EQ(r.bridges, base.bridges);
    }
  }
}

}  // namespace
}  // namespace parbcc
