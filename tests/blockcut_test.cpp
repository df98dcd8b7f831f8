#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "augmentation.hpp"
#include "connectivity/union_find.hpp"
#include "core/bcc.hpp"
#include "core/block_cut_tree.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"
#include "util/thread_pool.hpp"

namespace parbcc {
namespace {

BccResult solve(Executor& ex, const EdgeList& g) {
  BccOptions opt;
  opt.algorithm = BccAlgorithm::kAuto;
  return testutil::solve(ex, g, opt);
}

BlockCutTree tree_of(Executor& ex, const EdgeList& g, const BccResult& r) {
  Workspace ws;
  return build_block_cut_tree(ex, ws, g, r.edge_component, r.num_components,
                              r.is_articulation);
}

TEST(BlockCutTree, CliqueChainShape) {
  Executor ex(2);
  const EdgeList g = gen::clique_chain(4, 4);
  const BccResult r = solve(ex, g);
  const BlockCutTree tree = tree_of(ex, g, r);
  EXPECT_EQ(tree.num_blocks, 4u);
  EXPECT_EQ(tree.num_cut_nodes, 3u);
  // A chain of blocks: 2 leaves, 2 interior blocks, 6 tree edges.
  EXPECT_EQ(tree.edges.size(), 6u);
  vid leaves = 0;
  for (vid b = 0; b < tree.num_blocks; ++b) leaves += tree.is_leaf_block(b);
  EXPECT_EQ(leaves, 2u);
  // Each block of a 4-clique has 4 vertices.
  for (vid b = 0; b < tree.num_blocks; ++b) {
    EXPECT_EQ(tree.vertices_of_block(b).size(), 4u);
  }
}

TEST(BlockCutTree, StarShape) {
  Executor ex(1);
  const EdgeList g = gen::star(6);
  const BccResult r = solve(ex, g);
  const BlockCutTree tree = tree_of(ex, g, r);
  EXPECT_EQ(tree.num_blocks, 5u);
  EXPECT_EQ(tree.num_cut_nodes, 1u);
  EXPECT_EQ(tree.cut_vertex[0], 0u);
  EXPECT_EQ(tree.edges.size(), 5u);
  for (vid b = 0; b < tree.num_blocks; ++b) {
    EXPECT_TRUE(tree.is_leaf_block(b));
  }
}

TEST(BlockCutTree, BiconnectedGraphIsOneBlockNoCuts) {
  Executor ex(2);
  const EdgeList g = gen::grid_torus(4, 4);
  const BccResult r = solve(ex, g);
  const BlockCutTree tree = tree_of(ex, g, r);
  EXPECT_EQ(tree.num_blocks, 1u);
  EXPECT_EQ(tree.num_cut_nodes, 0u);
  EXPECT_TRUE(tree.edges.empty());
  EXPECT_EQ(tree.vertices_of_block(0).size(), g.n);
}

TEST(BlockCutTree, EdgesConnectBlocksToTheirCutVertices) {
  Executor ex(2);
  const EdgeList g = gen::random_connected_gnm(300, 360, 4);
  const BccResult r = solve(ex, g);
  const BlockCutTree tree = tree_of(ex, g, r);
  // Validate each tree edge against raw membership.
  for (const Edge& e : tree.edges) {
    const vid block = e.u;
    const vid cut = tree.cut_vertex[e.v - tree.num_blocks];
    const auto members = tree.vertices_of_block(block);
    EXPECT_TRUE(std::find(members.begin(), members.end(), cut) !=
                members.end());
  }
  // Tree edge count = total cut-vertex memberships.
  std::size_t expected = 0;
  for (vid b = 0; b < tree.num_blocks; ++b) {
    for (const vid v : tree.vertices_of_block(b)) {
      expected += r.is_articulation[v] ? 1 : 0;
    }
  }
  EXPECT_EQ(tree.edges.size(), expected);
  // The block-cut structure of a connected graph is a tree: edges =
  // nodes - 1 over blocks + cut nodes.
  EXPECT_EQ(tree.edges.size(), tree.num_blocks + tree.num_cut_nodes - 1u);
}

TEST(BlockCutTree, RequiresCutInfo) {
  Executor ex(1);
  const EdgeList g = gen::cycle(4);
  BccOptions opt;
  opt.compute_cut_info = false;
  const BccResult r = testutil::solve(ex, g, opt);
  EXPECT_THROW(tree_of(ex, g, r), std::invalid_argument);
}

/// The tree as the definition states it: sort every (block, endpoint)
/// incidence, deduplicate, and walk the runs.  This is the 2m-key
/// construction the library used before it sorted only the keys that
/// need one, so equality pins the arrays byte for byte.
BlockCutTree sort_all_incidences(const EdgeList& g, const BccResult& r) {
  BlockCutTree tree;
  tree.num_blocks = r.num_components;
  tree.cut_node_of.assign(g.n, kNoVertex);
  for (vid v = 0; v < g.n; ++v) {
    if (r.is_articulation[v]) {
      tree.cut_node_of[v] = static_cast<vid>(tree.cut_vertex.size());
      tree.cut_vertex.push_back(v);
    }
  }
  tree.num_cut_nodes = static_cast<vid>(tree.cut_vertex.size());
  std::set<std::pair<vid, vid>> incidences;
  for (eid e = 0; e < g.m(); ++e) {
    incidences.insert({r.edge_component[e], g.edges[e].u});
    incidences.insert({r.edge_component[e], g.edges[e].v});
  }
  tree.block_offsets.assign(tree.num_blocks + 1, 0);
  tree.cut_degree_.assign(tree.num_blocks, 0);
  for (const auto& [block, v] : incidences) {
    ++tree.block_offsets[block + 1];
    tree.block_vertices.push_back(v);
    if (tree.cut_node_of[v] != kNoVertex) {
      tree.edges.push_back({block, tree.num_blocks + tree.cut_node_of[v]});
      ++tree.cut_degree_[block];
    }
  }
  for (vid b = 0; b < tree.num_blocks; ++b) {
    tree.block_offsets[b + 1] += tree.block_offsets[b];
  }
  return tree;
}

void expect_same_tree(const BlockCutTree& got, const BlockCutTree& want) {
  EXPECT_EQ(got.num_blocks, want.num_blocks);
  EXPECT_EQ(got.num_cut_nodes, want.num_cut_nodes);
  EXPECT_EQ(got.cut_vertex, want.cut_vertex);
  EXPECT_EQ(got.cut_node_of, want.cut_node_of);
  ASSERT_EQ(got.edges.size(), want.edges.size());
  for (std::size_t i = 0; i < got.edges.size(); ++i) {
    EXPECT_EQ(got.edges[i].u, want.edges[i].u) << "tree edge " << i;
    EXPECT_EQ(got.edges[i].v, want.edges[i].v) << "tree edge " << i;
  }
  EXPECT_EQ(got.block_offsets, want.block_offsets);
  EXPECT_EQ(got.block_vertices, want.block_vertices);
  EXPECT_EQ(got.cut_degree_, want.cut_degree_);
}

TEST(BlockCutTree, MatchesFullIncidenceSortAtEveryWidth) {
  const std::vector<EdgeList> graphs = {
      gen::clique_chain(5, 4),
      gen::star(12),
      gen::barbell(5, 4),
      gen::random_connected_gnm(3000, 3750, 2),
      gen::random_gnm(2000, 2600, 3),
      gen::random_connected_gnm(1500, 30000, 4),
      gen::random_cactus(60, 7, 5),
      // Loops (each its own block), a doubled edge and isolated vertices.
      EdgeList(9, {{0, 0}, {0, 1}, {1, 2}, {2, 0}, {2, 2}, {3, 4}, {4, 3},
                   {4, 5}, {7, 7}}),
      EdgeList(3, {}),
  };
  for (const EdgeList& g : graphs) {
    Executor ex1(1);
    const BccResult r = solve(ex1, g);
    const BlockCutTree want = sort_all_incidences(g, r);
    for (const int p : {1, 4, 12}) {
      SCOPED_TRACE("n=" + std::to_string(g.n) + " p=" + std::to_string(p));
      Executor ex(p);
      expect_same_tree(tree_of(ex, g, r), want);
      // block_of: the one block of each non-cut vertex with a non-loop
      // edge.
      std::vector<vid> block_of;
      Workspace ws;
      build_block_cut_tree(ex, ws, g, r.edge_component, r.num_components,
                           r.is_articulation, &block_of);
      ASSERT_EQ(block_of.size(), g.n);
      std::vector<vid> want_block(g.n, kNoVertex);
      for (eid e = 0; e < g.m(); ++e) {
        for (const vid v : {g.edges[e].u, g.edges[e].v}) {
          if (g.edges[e].u != g.edges[e].v && !r.is_articulation[v]) {
            want_block[v] = r.edge_component[e];
          }
        }
      }
      EXPECT_EQ(block_of, want_block);
    }
  }
}

void expect_biconnected_after_augmentation(Executor& ex, EdgeList g) {
  const BccResult before = solve(ex, g);
  const auto added = biconnectivity_augmentation(ex, g, before);
  for (const Edge& e : added) g.edges.push_back(e);
  const BccResult after = solve(ex, g);
  EXPECT_EQ(after.num_components, 1u)
      << "still " << after.num_components << " blocks after adding "
      << added.size() << " edges";
  for (const auto a : after.is_articulation) EXPECT_EQ(a, 0);
}

TEST(Augmentation, AlreadyBiconnectedAddsNothing) {
  Executor ex(2);
  const EdgeList g = gen::cycle(12);
  const BccResult r = solve(ex, g);
  EXPECT_TRUE(biconnectivity_augmentation(ex, g, r).empty());
}

TEST(Augmentation, PathBecomesBiconnected) {
  Executor ex(2);
  expect_biconnected_after_augmentation(ex, gen::path(30));
}

TEST(Augmentation, StarBecomesBiconnected) {
  Executor ex(2);
  expect_biconnected_after_augmentation(ex, gen::star(20));
}

TEST(Augmentation, CliqueChainBecomesBiconnected) {
  Executor ex(2);
  expect_biconnected_after_augmentation(ex, gen::clique_chain(6, 5));
}

TEST(Augmentation, CactusBecomesBiconnected) {
  Executor ex(2);
  expect_biconnected_after_augmentation(ex, gen::random_cactus(25, 6, 3));
}

TEST(Augmentation, DisconnectedWithIsolatedVertices) {
  Executor ex(2);
  // Two triangles, a path, and two isolated vertices.
  EdgeList g(12, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {6, 7},
                  {7, 8}});
  expect_biconnected_after_augmentation(ex, g);
}

TEST(Augmentation, SparseRandomGraphsSweep) {
  Executor ex(2);
  for (const int seed : {1, 2, 3, 4, 5}) {
    expect_biconnected_after_augmentation(
        ex, gen::random_gnm(150, 170, seed));
  }
}

TEST(Augmentation, RejectsTinyGraphs) {
  Executor ex(1);
  const EdgeList g(2, {{0, 1}});
  const BccResult r = solve(ex, g);
  EXPECT_THROW(biconnectivity_augmentation(ex, g, r), std::invalid_argument);
}

}  // namespace
}  // namespace parbcc
