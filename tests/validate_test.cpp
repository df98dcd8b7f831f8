#include <gtest/gtest.h>

#include "core/bcc.hpp"
#include "core/validate.hpp"
#include "engines.hpp"
#include "graph/generators.hpp"
#include "util/thread_pool.hpp"

namespace parbcc {
namespace {

BccResult solve(Executor& ex, const EdgeList& g, Engine algorithm) {
  return testutil::solve(ex, g, algorithm);
}

TEST(Validate, AcceptsCorrectResultsAcrossFamilies) {
  Executor ex(3);
  const EdgeList graphs[] = {
      gen::cycle(10),
      gen::path(20),
      gen::star(15),
      gen::clique_chain(5, 4),
      gen::random_connected_gnm(500, 1500, 3),
      gen::random_cactus(30, 6, 4),
      gen::grid_torus(6, 7),
      gen::wheel(12),
      gen::complete_bipartite(4, 5),
      gen::barbell(5, 2),
      gen::random_gnm(200, 150, 9),  // disconnected
  };
  for (const EdgeList& g : graphs) {
    for (const Engine algorithm :
         {Engine(BccAlgorithm::kSequential), Engine(paper::Algorithm::kTvOpt),
          Engine(paper::Algorithm::kTvFilter)}) {
      const BccResult r = solve(ex, g, algorithm);
      const ValidationReport report = validate_bcc(ex, g, r);
      EXPECT_TRUE(report.ok)
          << to_string(algorithm) << ": " << report.message;
    }
  }
}

TEST(Validate, AcceptsLargeBlockPath) {
  // > 64 edges in one block exercises the Hopcroft-Tarjan sub-check.
  Executor ex(2);
  const EdgeList g = gen::random_connected_gnm(300, 2000, 11);
  const BccResult r = solve(ex, g, paper::Algorithm::kTvFilter);
  EXPECT_TRUE(validate_bcc(ex, g, r).ok);
}

TEST(Validate, RejectsOutOfRangeLabel) {
  Executor ex(1);
  const EdgeList g = gen::cycle(4);
  BccResult r = solve(ex, g, BccAlgorithm::kSequential);
  r.edge_component[0] = 99;
  EXPECT_FALSE(validate_bcc(ex, g, r).ok);
}

TEST(Validate, RejectsSplitBlock) {
  Executor ex(1);
  // A cycle is one block; declaring two labels must fail (a
  // fundamental cycle would carry two labels).
  const EdgeList g = gen::cycle(6);
  BccResult r = solve(ex, g, BccAlgorithm::kSequential);
  r.num_components = 2;
  r.edge_component[3] = 1;
  r.is_articulation.clear();  // skip the cut-info consistency check
  const ValidationReport report = validate_bcc(ex, g, r);
  EXPECT_FALSE(report.ok);
}

TEST(Validate, RejectsMergedBlocks) {
  Executor ex(1);
  // Two triangles sharing a vertex: merging them into one label leaves
  // an internal cut vertex.
  EdgeList g(5, {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 2}});
  BccResult r = solve(ex, g, BccAlgorithm::kSequential);
  for (auto& c : r.edge_component) c = 0;
  r.num_components = 1;
  r.is_articulation.clear();
  const ValidationReport report = validate_bcc(ex, g, r);
  EXPECT_FALSE(report.ok);
}

TEST(Validate, RejectsMergedBridges) {
  Executor ex(1);
  // Path: each edge its own block; merging two adjacent bridges fails
  // the vertex-deletion check.
  const EdgeList g = gen::path(4);
  BccResult r = solve(ex, g, BccAlgorithm::kSequential);
  r.edge_component = {0, 0, 1};
  r.num_components = 2;
  r.is_articulation.clear();
  EXPECT_FALSE(validate_bcc(ex, g, r).ok);
}

TEST(Validate, RejectsWrongArticulationFlags) {
  Executor ex(1);
  const EdgeList g = gen::path(4);
  BccResult r = solve(ex, g, BccAlgorithm::kSequential);
  r.is_articulation[0] = 1;
  EXPECT_FALSE(validate_bcc(ex, g, r).ok);
}

TEST(Validate, RejectsWrongBridgeList) {
  Executor ex(1);
  const EdgeList g = gen::path(4);
  BccResult r = solve(ex, g, BccAlgorithm::kSequential);
  r.bridges.pop_back();
  EXPECT_FALSE(validate_bcc(ex, g, r).ok);
}

TEST(Validate, EmptyGraphIsValid) {
  Executor ex(1);
  const EdgeList g(0, {});
  const BccResult r = solve(ex, g, BccAlgorithm::kSequential);
  EXPECT_TRUE(validate_bcc(ex, g, r).ok);
}

}  // namespace
}  // namespace parbcc
