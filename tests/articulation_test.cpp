#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/articulation.hpp"
#include "core/bcc.hpp"
#include "graph/generators.hpp"
#include "graph/text_parse.hpp"
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

/// The engines that report cut info from their own state.
constexpr BccAlgorithm kEngines[] = {BccAlgorithm::kSequential,
                                     BccAlgorithm::kFastBcc,
                                     BccAlgorithm::kAuto};

/// Labels from one solve, cut info re-derived at each width; then
/// every library engine's own cut info, at each width and from root 0
/// and `root`, bit for bit against both oracles over its own labels.
void expect_cut_info(const EdgeList& g, bool brute_force, vid root = 0) {
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

    for (const BccAlgorithm algorithm : kEngines) {
      for (const vid from : {vid{0}, root}) {
        BccOptions eopt;
        eopt.algorithm = algorithm;
        eopt.root = from;
        eopt.compute_cut_info = true;
        const BccResult got = testutil::solve(ex, g, eopt);
        const std::string where = std::string(to_string(algorithm)) +
                                  " p=" + std::to_string(p) +
                                  " root=" + std::to_string(from);
        ASSERT_TRUE(testutil::same_partition(got.edge_component,
                                             labeled.edge_component))
            << where;
        const CutInfo own = sequential_cut_info(g, got);
        BccResult annotated = got;
        annotated.is_articulation.clear();
        annotated.bridges.clear();
        annotate_cut_info(ex, ws, g, annotated);
        EXPECT_EQ(got.is_articulation, own.is_articulation) << where;
        EXPECT_EQ(got.bridges, own.bridges) << where;
        EXPECT_EQ(got.is_articulation, annotated.is_articulation) << where;
        EXPECT_EQ(got.bridges, annotated.bridges) << where;
      }
    }
  }
}

TEST(CutInfo, PathStarAndBowtie) {
  expect_cut_info(gen::path(12), true, /*root=*/6);
  expect_cut_info(gen::star(10), true, /*root=*/4);
  // Two cycles sharing vertex 3.
  expect_cut_info(EdgeList(7, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {3, 4},
                               {4, 5}, {5, 6}, {6, 3}}),
                  true, /*root=*/5);
}

TEST(CutInfo, DoubledEdgeIsNotABridge) {
  const EdgeList g(3, {{0, 1}, {1, 0}, {1, 2}});
  expect_cut_info(g, true, /*root=*/2);
  // A doubled edge between two cycles, and a doubled pendant edge.
  expect_cut_info(EdgeList(8, {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 2},
                               {3, 4}, {4, 5}, {5, 3}, {5, 6}, {6, 5},
                               {6, 7}}),
                  true, /*root=*/4);
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
  expect_cut_info(g, true, /*root=*/1);
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
  const EdgeList g(10, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {7, 8}});
  expect_cut_info(g, true, /*root=*/4);
  expect_cut_info(g, true, /*root=*/6);  // the root is isolated
  expect_cut_info(EdgeList(4, {}), true, /*root=*/3);
}

TEST(CutInfo, SmallRandomGraphs) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    expect_cut_info(gen::random_gnm(40, 50, seed), true,
                    static_cast<vid>(7 * seed + 1));
    expect_cut_info(gen::random_cactus(8, 5, seed), true,
                    static_cast<vid>(3 * seed + 2));
  }
}

TEST(CutInfo, SparseRandomGraphsWithCrossEdges) {
  // m = 2n under a BFS tree: cross edges join a critical child's
  // cluster to a non-critical sibling's, so "u has a critical child"
  // over-reports cut vertices here while the cluster rule does not.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    expect_cut_info(gen::random_connected_gnm(800, 1600, seed), false,
                    static_cast<vid>(100 * seed));
    expect_cut_info(gen::random_gnm(3000, 4500, seed), false,
                    static_cast<vid>(17 * seed));
  }
}

TEST(CutInfo, CommittedFixtures) {
  Executor ex(4);
  for (const char* name :
       {"clique-chain", "road-grid", "social-comm", "web-pa"}) {
    SCOPED_TRACE(name);
    const EdgeList g = io::read_text_graph(
        ex, std::string(PARBCC_TEST_DATA_DIR) + "/" + name + ".txt");
    expect_cut_info(g, false, g.n / 2);
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
