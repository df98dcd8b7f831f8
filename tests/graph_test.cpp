#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/text_parse.hpp"
#include "test_util.hpp"
#include "util/thread_pool.hpp"

namespace parbcc {
namespace {

std::set<std::pair<vid, vid>> canonical_edge_set(const EdgeList& g) {
  std::set<std::pair<vid, vid>> out;
  for (const Edge& e : g.edges) {
    out.insert({std::min(e.u, e.v), std::max(e.u, e.v)});
  }
  return out;
}

TEST(EdgeList, ValidateCatchesBadEndpointsAndLoops) {
  EdgeList g(3, {{0, 1}});
  EXPECT_TRUE(g.validate());
  g.add_edge(2, 2);
  EXPECT_FALSE(g.validate());
  EdgeList h(2, {{0, 5}});
  EXPECT_FALSE(h.validate());
}

TEST(EdgeList, RemoveSelfLoopsKeepsMapping) {
  EdgeList g(4, {{0, 1}, {2, 2}, {1, 3}, {3, 3}});
  std::vector<eid> kept;
  const EdgeList out = remove_self_loops(g, &kept);
  EXPECT_EQ(out.m(), 2u);
  EXPECT_EQ(kept, (std::vector<eid>{0, 2}));
  EXPECT_EQ(out.edges[0], (Edge{0, 1}));
  EXPECT_EQ(out.edges[1], (Edge{1, 3}));
}

TEST(EdgeStore, BorrowedMutationIsCountedCopyOnWrite) {
  const std::vector<Edge> storage = {{0, 1}, {1, 2}, {2, 0}};
  EdgeStore s = EdgeStore::borrow({storage.data(), storage.size()});
  const std::size_t before = EdgeStore::materialize_count();

  // Const reads keep the borrow and never copy.
  for (const Edge& e : std::as_const(s)) EXPECT_LT(e.u, 3u);
  EXPECT_EQ(std::as_const(s)[1], (Edge{1, 2}));
  ASSERT_TRUE(s.is_borrowed());
  EXPECT_EQ(EdgeStore::materialize_count(), before);

  // A non-const accessor on a borrowed store is the silent O(m) copy
  // the counter exists to surface.
  for (Edge& e : s) (void)e;
  EXPECT_FALSE(s.is_borrowed());
  EXPECT_EQ(EdgeStore::materialize_count(), before + 1);
  EXPECT_EQ(s.data()[0], storage[0]);

  // Already owned: further mutation is free.
  s[0].u = 2;
  s.push_back({0, 1});
  EXPECT_EQ(EdgeStore::materialize_count(), before + 1);
  EXPECT_EQ(storage[0].u, 0u);  // the borrowed storage was never touched
}

TEST(Csr, AdjacencyMatchesEdgeList) {
  for (const int threads : {1, 4}) {
    Executor ex(threads);
    Workspace ws;
    const EdgeList g = gen::random_connected_gnm(500, 2000, 42);
    const Csr csr = Csr::build(ex, ws, g);
    ASSERT_EQ(csr.num_vertices(), g.n);
    ASSERT_EQ(csr.num_edges(), g.m());

    // Every adjacency entry corresponds to its edge id.
    std::size_t entries = 0;
    for (vid v = 0; v < g.n; ++v) {
      const auto nbrs = csr.neighbors(v);
      const auto eids = csr.incident_edges(v);
      ASSERT_EQ(nbrs.size(), eids.size());
      for (std::size_t k = 0; k < nbrs.size(); ++k) {
        const Edge& e = g.edges[eids[k]];
        ASSERT_TRUE((e.u == v && e.v == nbrs[k]) ||
                    (e.v == v && e.u == nbrs[k]));
      }
      entries += nbrs.size();
    }
    EXPECT_EQ(entries, 2ull * g.m());

    // Degrees match a serial count.
    std::vector<eid> deg(g.n, 0);
    for (const Edge& e : g.edges) {
      ++deg[e.u];
      ++deg[e.v];
    }
    for (vid v = 0; v < g.n; ++v) ASSERT_EQ(csr.degree(v), deg[v]);
  }
}

TEST(Csr, EachEdgeAppearsExactlyTwice) {
  Executor ex(4);
  Workspace ws;
  const EdgeList g = gen::random_gnm(200, 800, 7);
  const Csr csr = Csr::build(ex, ws, g);
  std::vector<int> hits(g.m(), 0);
  for (vid v = 0; v < g.n; ++v) {
    for (const eid e : csr.incident_edges(v)) ++hits[e];
  }
  for (eid e = 0; e < g.m(); ++e) ASSERT_EQ(hits[e], 2);
}

TEST(Csr, RejectsSelfLoops) {
  Executor ex(1);
  Workspace ws;
  EdgeList g(2, {{1, 1}});
  EXPECT_THROW(Csr::build(ex, ws, g), std::invalid_argument);
}

TEST(Generators, RandomGnmExactCountDistinctNoLoops) {
  const EdgeList g = gen::random_gnm(100, 700, 3);
  EXPECT_EQ(g.n, 100u);
  EXPECT_EQ(g.m(), 700u);
  EXPECT_TRUE(g.validate());
  EXPECT_EQ(canonical_edge_set(g).size(), 700u);
}

TEST(Generators, RandomGnmDeterministicInSeed) {
  const EdgeList a = gen::random_gnm(50, 200, 11);
  const EdgeList b = gen::random_gnm(50, 200, 11);
  const EdgeList c = gen::random_gnm(50, 200, 12);
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_NE(canonical_edge_set(a), canonical_edge_set(c));
}

TEST(Generators, RandomGnmRejectsOverfull) {
  EXPECT_THROW(gen::random_gnm(4, 7, 0), std::invalid_argument);
  EXPECT_NO_THROW(gen::random_gnm(4, 6, 0));
}

TEST(Generators, RandomConnectedGnmIsConnected) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    const EdgeList g = gen::random_connected_gnm(300, 500, seed);
    EXPECT_EQ(g.m(), 500u);
    EXPECT_TRUE(g.validate());
    EXPECT_EQ(testutil::component_count(g), 1u);
    EXPECT_EQ(canonical_edge_set(g).size(), 500u);
  }
}

TEST(Generators, RandomConnectedGnmTreeOnly) {
  const EdgeList g = gen::random_connected_gnm(64, 63, 5);
  EXPECT_EQ(g.m(), 63u);
  EXPECT_EQ(testutil::component_count(g), 1u);
}

TEST(Generators, PathCycleStarShapes) {
  const EdgeList p = gen::path(5);
  EXPECT_EQ(p.m(), 4u);
  const EdgeList c = gen::cycle(5);
  EXPECT_EQ(c.m(), 5u);
  EXPECT_EQ(testutil::component_count(c), 1u);
  const EdgeList s = gen::star(6);
  EXPECT_EQ(s.m(), 5u);
  for (const Edge& e : s.edges) EXPECT_EQ(e.u, 0u);
  EXPECT_THROW(gen::cycle(2), std::invalid_argument);
}

TEST(Generators, CompleteGraphDegrees) {
  const EdgeList g = gen::complete(7);
  EXPECT_EQ(g.m(), 21u);
  std::vector<int> deg(7, 0);
  for (const Edge& e : g.edges) {
    ++deg[e.u];
    ++deg[e.v];
  }
  for (const int d : deg) EXPECT_EQ(d, 6);
}

TEST(Generators, TorusIsFourRegular) {
  const EdgeList g = gen::grid_torus(4, 5);
  EXPECT_EQ(g.n, 20u);
  EXPECT_EQ(g.m(), 40u);
  std::vector<int> deg(g.n, 0);
  for (const Edge& e : g.edges) {
    ++deg[e.u];
    ++deg[e.v];
  }
  for (const int d : deg) EXPECT_EQ(d, 4);
  EXPECT_EQ(testutil::component_count(g), 1u);
}

TEST(Generators, CliqueChainStructure) {
  const EdgeList g = gen::clique_chain(3, 4);
  EXPECT_EQ(g.n, 10u);  // 3 * (4-1) + 1
  EXPECT_EQ(g.m(), 18u);  // 3 * C(4,2)
  EXPECT_EQ(testutil::component_count(g), 1u);
}

TEST(Generators, CycleChainStructure) {
  const EdgeList g = gen::cycle_chain(4, 5);
  EXPECT_EQ(g.n, 17u);  // 4 * 4 + 1
  EXPECT_EQ(g.m(), 20u);
  EXPECT_EQ(testutil::component_count(g), 1u);
}

TEST(Generators, RandomCactusConnectedAndSized) {
  const EdgeList g = gen::random_cactus(20, 8, 99);
  EXPECT_TRUE(g.validate());
  EXPECT_EQ(testutil::component_count(g), 1u);
  // Each block is a cycle: m == n - 1 + blocks.
  EXPECT_EQ(g.m(), g.n - 1 + 20);
}

TEST(Generators, DenseRetainProportions) {
  const EdgeList g70 = gen::dense_retain(40, 700, 1);
  const EdgeList g90 = gen::dense_retain(40, 900, 1);
  const std::uint64_t all = 40ull * 39 / 2;
  EXPECT_EQ(g70.m(), all * 700 / 1000);
  EXPECT_EQ(g90.m(), all * 900 / 1000);
  EXPECT_EQ(canonical_edge_set(g70).size(), g70.m());
}

TEST(Generators, RmatSkewedButValid) {
  const EdgeList g = gen::rmat(12, 8, 5);
  EXPECT_EQ(g.n, 4096u);
  EXPECT_EQ(g.m(), 8u * 4096u);
  EXPECT_TRUE(g.validate());
  EXPECT_EQ(canonical_edge_set(g).size(), g.m());
  // Degree skew: the maximum degree far exceeds the average.
  std::vector<eid> deg(g.n, 0);
  for (const Edge& e : g.edges) {
    ++deg[e.u];
    ++deg[e.v];
  }
  const eid max_deg = *std::max_element(deg.begin(), deg.end());
  EXPECT_GT(max_deg, 5u * (2u * g.m() / g.n));
}

TEST(Generators, RmatDeterministicAndParamChecked) {
  const EdgeList a = gen::rmat(8, 4, 7);
  const EdgeList b = gen::rmat(8, 4, 7);
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_THROW(gen::rmat(0, 4, 7), std::invalid_argument);
  EXPECT_THROW(gen::rmat(8, 4, 7, 0.5, 0.3, 0.3), std::invalid_argument);
}

TEST(Generators, PowerLawConnectedSkewedAndExactlySized) {
  const vid n = 2000;
  const eid m = 10000;
  const EdgeList g = gen::random_power_law(n, m, 2.1, 7);
  EXPECT_EQ(g.n, n);
  EXPECT_EQ(g.m(), m);
  EXPECT_TRUE(g.validate());
  EXPECT_EQ(canonical_edge_set(g).size(), g.m());
  EXPECT_EQ(testutil::component_count(g), 1u);
  // Hub mass: the maximum degree dwarfs both the average and the
  // n/100 floor the scheduler ablation's skew case relies on.
  std::vector<eid> deg(g.n, 0);
  for (const Edge& e : g.edges) {
    ++deg[e.u];
    ++deg[e.v];
  }
  const eid max_deg = *std::max_element(deg.begin(), deg.end());
  EXPECT_GE(max_deg, n / 100);
  EXPECT_GT(max_deg, 10u * (2u * m / n));
}

TEST(Generators, PowerLawDeterministicAndParamChecked) {
  const EdgeList a = gen::random_power_law(500, 2000, 2.1, 11);
  const EdgeList b = gen::random_power_law(500, 2000, 2.1, 11);
  EXPECT_EQ(a.edges, b.edges);
  const EdgeList c = gen::random_power_law(500, 2000, 2.1, 12);
  EXPECT_NE(a.edges, c.edges);
  // A tree-only instance stays connected with zero extra edges.
  const EdgeList t = gen::random_power_law(300, 299, 2.5, 1);
  EXPECT_EQ(t.m(), 299u);
  EXPECT_EQ(testutil::component_count(t), 1u);
  EXPECT_THROW(gen::random_power_law(100, 98, 2.1, 1), std::invalid_argument);
  EXPECT_THROW(gen::random_power_law(100, 200, 1.0, 1), std::invalid_argument);
  EXPECT_THROW(gen::random_power_law(10, 100, 2.1, 1), std::invalid_argument);
}

TEST(Generators, WheelShape) {
  const EdgeList g = gen::wheel(6);
  EXPECT_EQ(g.n, 6u);
  EXPECT_EQ(g.m(), 10u);  // 5 spokes + 5 rim edges
  std::vector<int> deg(g.n, 0);
  for (const Edge& e : g.edges) {
    ++deg[e.u];
    ++deg[e.v];
  }
  EXPECT_EQ(deg[0], 5);
  for (vid v = 1; v < 6; ++v) EXPECT_EQ(deg[v], 3);
  EXPECT_THROW(gen::wheel(3), std::invalid_argument);
}

TEST(Generators, CompleteBipartiteShape) {
  const EdgeList g = gen::complete_bipartite(3, 4);
  EXPECT_EQ(g.n, 7u);
  EXPECT_EQ(g.m(), 12u);
  for (const Edge& e : g.edges) {
    EXPECT_LT(e.u, 3u);
    EXPECT_GE(e.v, 3u);
  }
}

TEST(Generators, BarbellShape) {
  const EdgeList g = gen::barbell(4, 3);
  EXPECT_EQ(g.n, 10u);         // 4 + 2 interior + 4
  EXPECT_EQ(g.m(), 15u);       // 2 * C(4,2) + 3
  EXPECT_EQ(testutil::component_count(g), 1u);
  EXPECT_TRUE(g.validate());
}

EdgeList parse_edge_list(const std::string& text) {
  Executor ex(2);
  return io::parse_edge_list(ex, text);
}

EdgeList parse_dimacs(const std::string& text) {
  Executor ex(2);
  return io::parse_dimacs(ex, text);
}

EdgeList parse_metis(const std::string& text) { return io::parse_metis(text); }

/// `parse(text)` must throw a std::runtime_error whose message starts
/// with "<format>:".
void expect_rejected(EdgeList (*parse)(const std::string&),
                     const std::string& text, const std::string& format) {
  try {
    parse(text);
    ADD_FAILURE() << format << " accepted \"" << text << "\"";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind(format + ":", 0), 0u) << e.what();
  }
}

TEST(GraphIo, RoundTrip) {
  const EdgeList g = gen::random_gnm(30, 100, 8);
  std::stringstream ss;
  io::write_edge_list(ss, g);
  const EdgeList back = parse_edge_list(ss.str());
  EXPECT_EQ(back.n, g.n);
  EXPECT_EQ(back.edges, g.edges);
}

TEST(GraphIo, CommentsAndBlankLinesIgnored) {
  const EdgeList g =
      parse_edge_list("# header\n\n3 2\n# edge one\n0 1\n\n1 2\n");
  EXPECT_EQ(g.n, 3u);
  ASSERT_EQ(g.m(), 2u);
  EXPECT_EQ(g.edges[1], (Edge{1, 2}));
}

TEST(GraphIo, DimacsRoundTrip) {
  const EdgeList g = gen::random_gnm(25, 60, 3);
  std::stringstream ss;
  io::write_dimacs(ss, g);
  const EdgeList back = parse_dimacs(ss.str());
  EXPECT_EQ(back.n, g.n);
  EXPECT_EQ(back.edges, g.edges);
}

TEST(GraphIo, DimacsMalformedThrows) {
  expect_rejected(parse_dimacs, "e 1 2\n", "dimacs");  // no header
  expect_rejected(parse_dimacs, "p edge 3 2\ne 1 2\n", "dimacs");  // short
  expect_rejected(parse_dimacs, "p edge 3 1\ne 0 2\n", "dimacs");  // 0-based
  expect_rejected(parse_dimacs, "p tour 3 1\ne 1 2\n", "dimacs");  // kind
}

TEST(GraphIo, MetisRoundTrip) {
  // Include an isolated vertex (empty adjacency line).
  EdgeList g(5, {{0, 1}, {1, 2}, {2, 0}, {0, 3}});
  std::stringstream ss;
  io::write_metis(ss, g);
  const EdgeList back = parse_metis(ss.str());
  EXPECT_EQ(back.n, g.n);
  EXPECT_EQ(canonical_edge_set(back), canonical_edge_set(g));
  EXPECT_EQ(back.m(), g.m());
}

TEST(GraphIo, MetisRejectsSelfLoopsAndWeights) {
  EdgeList looped(2, {{1, 1}});
  std::stringstream out;
  EXPECT_THROW(io::write_metis(out, looped), std::runtime_error);
  expect_rejected(parse_metis, "2 1 1\n2 3\n1 3\n", "metis");  // weighted
  expect_rejected(parse_metis, "3 2\n2\n1\n", "metis");  // no third row
}

TEST(GraphIo, MalformedInputsThrow) {
  expect_rejected(parse_edge_list, "", "edge list");
  expect_rejected(parse_edge_list, "3 2\n0 1\n", "edge list");  // short
  expect_rejected(parse_edge_list, "3 1\n0 7\n", "edge list");  // range
  expect_rejected(parse_edge_list, "bogus\n", "edge list");
}

}  // namespace
}  // namespace parbcc
