#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/articulation.hpp"
#include "core/bcc.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"
#include "util/thread_pool.hpp"

namespace parbcc {
namespace {

/// Cut info as the label definition states it, one edge at a time: a
/// vertex is a cut iff two labels meet at it (loops ignored), a bridge
/// is the only edge of its label and not a loop.  This is also what the
/// earlier counter-based annotate_cut_info produced, so agreement pins
/// the output byte for byte.
struct CutInfo {
  std::vector<std::uint8_t> is_articulation;
  std::vector<eid> bridges;
};

CutInfo sequential_cut_info(const EdgeList& g, const BccResult& labeled) {
  CutInfo out;
  out.is_articulation.assign(g.n, 0);
  std::vector<vid> first(g.n, kNoVertex);
  std::vector<eid> size(labeled.num_components, 0);
  for (eid e = 0; e < g.m(); ++e) {
    const vid label = labeled.edge_component[e];
    ++size[label];
    if (g.edges[e].u == g.edges[e].v) continue;
    for (const vid v : {g.edges[e].u, g.edges[e].v}) {
      if (first[v] == kNoVertex) {
        first[v] = label;
      } else if (first[v] != label) {
        out.is_articulation[v] = 1;
      }
    }
  }
  for (eid e = 0; e < g.m(); ++e) {
    if (size[labeled.edge_component[e]] == 1 &&
        g.edges[e].u != g.edges[e].v) {
      out.bridges.push_back(e);
    }
  }
  return out;
}

/// Labels from one solve, cut info re-derived at each width.
void expect_cut_info(const EdgeList& g, bool brute_force) {
  BccOptions opt;
  opt.compute_cut_info = false;
  Executor ex1(1);
  const BccResult labeled = testutil::solve(ex1, g, opt);
  const CutInfo want = sequential_cut_info(g, labeled);
  if (brute_force) {
    EXPECT_EQ(want.is_articulation, testutil::brute_force_articulation(g));
    EXPECT_EQ(want.bridges, testutil::brute_force_bridges(g));
  }
  for (const int p : {1, 4, 12}) {
    Executor ex(p);
    Workspace ws;
    BccResult r = labeled;
    annotate_cut_info(ex, ws, g, r);
    EXPECT_EQ(r.is_articulation, want.is_articulation) << "p=" << p;
    EXPECT_EQ(r.bridges, want.bridges) << "p=" << p;
  }
}

TEST(CutInfo, PathStarAndBowtie) {
  expect_cut_info(gen::path(12), true);
  expect_cut_info(gen::star(10), true);
  // Two cycles sharing vertex 3.
  expect_cut_info(EdgeList(7, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {3, 4},
                               {4, 5}, {5, 6}, {6, 3}}),
                  true);
}

TEST(CutInfo, DoubledEdgeIsNotABridge) {
  const EdgeList g(3, {{0, 1}, {1, 0}, {1, 2}});
  expect_cut_info(g, true);
  Executor ex(4);
  BccOptions opt;
  opt.compute_cut_info = true;
  const BccResult r = testutil::solve(ex, g, opt);
  EXPECT_EQ(r.bridges, std::vector<eid>{2});
}

TEST(CutInfo, SelfLoopsNeverCutOrBridge) {
  // A loop at a path's end, one in the middle, one on a vertex whose
  // only edge is the loop.
  const EdgeList g(5, {{0, 0}, {0, 1}, {1, 1}, {1, 2}, {4, 4}});
  expect_cut_info(g, true);
  Executor ex(4);
  BccOptions opt;
  opt.compute_cut_info = true;
  const BccResult r = testutil::solve(ex, g, opt);
  EXPECT_EQ(r.is_articulation,
            (std::vector<std::uint8_t>{0, 1, 0, 0, 0}));
  EXPECT_EQ(r.bridges, (std::vector<eid>{1, 3}));
}

TEST(CutInfo, IsolatedVerticesAndSeveralComponents) {
  // Triangle, path 3-4-5, edge 7-8; vertices 6 and 9 isolated.
  expect_cut_info(EdgeList(10, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5},
                                {7, 8}}),
                  true);
  expect_cut_info(EdgeList(4, {}), true);
}

TEST(CutInfo, SmallRandomGraphs) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    expect_cut_info(gen::random_gnm(40, 50, seed), true);
    expect_cut_info(gen::random_cactus(8, 5, seed), true);
  }
}

TEST(CutInfo, DenseSingleBlockHasNoCutsOrBridges) {
  // m = 20n: every edge lands on one label, the shape where a shared
  // per-block counter or per-vertex CAS serialized the whole pass.
  const EdgeList g = gen::random_connected_gnm(2000, 40000, 7);
  expect_cut_info(g, false);
  Executor ex(12);
  BccOptions opt;
  opt.compute_cut_info = true;
  const BccResult r = testutil::solve(ex, g, opt);
  ASSERT_EQ(r.num_components, 1u);
  EXPECT_EQ(r.is_articulation, std::vector<std::uint8_t>(g.n, 0));
  EXPECT_TRUE(r.bridges.empty());
}

}  // namespace
}  // namespace parbcc
