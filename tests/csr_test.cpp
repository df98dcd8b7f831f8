#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/bcc.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "util/thread_pool.hpp"

namespace parbcc {
namespace {

/// Naive sequential adjacency: per-vertex vector of (neighbor, edge id)
/// pairs, in edge-list order.  Deliberately the dumbest possible
/// construction so it shares nothing with the bucket-scatter builder.
std::vector<std::vector<std::pair<vid, eid>>> reference_adjacency(
    const EdgeList& g) {
  std::vector<std::vector<std::pair<vid, eid>>> adj(g.n);
  for (eid e = 0; e < g.m(); ++e) {
    adj[g.edges[e].u].push_back({g.edges[e].v, e});
    adj[g.edges[e].v].push_back({g.edges[e].u, e});
  }
  return adj;
}

/// Csr row contents must match the reference as multisets: the builder
/// is free to order a row however it likes (the order depends on the
/// thread count), but not to drop, duplicate, or misattribute an arc.
void expect_csr_matches(Executor& ex, const EdgeList& g) {
  Workspace ws;
  const Csr csr = Csr::build(ex, ws, g);
  const auto ref = reference_adjacency(g);

  ASSERT_EQ(csr.num_vertices(), g.n);
  ASSERT_EQ(csr.num_edges(), g.m());
  ASSERT_EQ(csr.offsets().size(), static_cast<std::size_t>(g.n) + 1);
  EXPECT_EQ(csr.offsets()[0], 0u);
  EXPECT_EQ(csr.offsets()[g.n], 2 * g.m());

  std::vector<eid> eid_count(g.m(), 0);
  for (vid v = 0; v < g.n; ++v) {
    ASSERT_EQ(csr.offsets()[v + 1] - csr.offsets()[v], ref[v].size())
        << "degree mismatch at v=" << v;
    const auto nbrs = csr.neighbors(v);
    const auto eids = csr.incident_edges(v);
    ASSERT_EQ(nbrs.size(), eids.size());
    std::vector<std::pair<vid, eid>> row;
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      row.push_back({nbrs[k], eids[k]});
      ASSERT_LT(eids[k], g.m());
      // The arc must carry the id of an edge that actually joins
      // v and nbrs[k] (multigraph-safe: ids distinguish copies).
      const Edge& e = g.edges[eids[k]];
      EXPECT_TRUE((e.u == v && e.v == nbrs[k]) ||
                  (e.v == v && e.u == nbrs[k]))
          << "arc (" << v << "," << nbrs[k] << ") carries edge " << eids[k];
      ++eid_count[eids[k]];
    }
    std::vector<std::pair<vid, eid>> want = ref[v];
    std::sort(row.begin(), row.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(row, want) << "row multiset mismatch at v=" << v;
  }
  // Every edge id appears exactly twice across all rows (once per
  // endpoint), i.e. eids_ is a permutation of each id duplicated.
  for (eid e = 0; e < g.m(); ++e) {
    EXPECT_EQ(eid_count[e], 2u) << "edge " << e;
  }
}

void expect_csr_matches_all_widths(const EdgeList& g) {
  for (int p : {1, 4, 12}) {
    SCOPED_TRACE("threads=" + std::to_string(p));
    Executor ex(p);
    expect_csr_matches(ex, g);
  }
}

TEST(CsrBuild, RandomGnmSmall) {
  // Small enough for the sequential path (num_arcs <= 2^13).
  expect_csr_matches_all_widths(gen::random_gnm(200, 900, 1));
}

TEST(CsrBuild, RandomGnmScatter) {
  // Large enough to take the parallel bucket-scatter path.
  expect_csr_matches_all_widths(gen::random_gnm(20000, 120000, 2));
}

TEST(CsrBuild, RandomGnmDense) {
  expect_csr_matches_all_widths(gen::random_gnm(2000, 60000, 3));
}

TEST(CsrBuild, SparseTriggersRadixFallback) {
  // num_arcs = 2m < n/4 forces the trimmed-pass radix path.
  expect_csr_matches_all_widths(gen::random_gnm(100000, 9000, 4));
}

TEST(CsrBuild, StarAllArcsOneVertex) {
  // One vertex owns half of all arcs: stresses bucket skew.
  expect_csr_matches_all_widths(gen::star(5001));
}

TEST(CsrBuild, ChainUniformDegree) {
  expect_csr_matches_all_widths(gen::path(30000));
}

TEST(CsrBuild, MultigraphParallelEdges) {
  // Parallel copies must keep distinct edge ids per arc.
  EdgeList g(6, {{0, 1}, {0, 1}, {0, 1}, {1, 2}, {2, 0}, {2, 0},
                 {3, 4}, {4, 3}, {3, 4}, {4, 5}});
  expect_csr_matches_all_widths(g);
}

TEST(CsrBuild, EmptyAndEdgelessGraphs) {
  expect_csr_matches_all_widths(EdgeList(0, {}));
  expect_csr_matches_all_widths(EdgeList(57, {}));
}

TEST(CsrBuild, SingleEdge) {
  expect_csr_matches_all_widths(EdgeList(2, {{0, 1}}));
}

TEST(CsrBuild, RejectsSelfLoops) {
  Executor ex(4);
  Workspace ws;
  EdgeList g(3, {{0, 1}, {2, 2}});
  EXPECT_THROW(Csr::build(ex, ws, g), std::invalid_argument);
}

TEST(CsrAdopt, BorrowedViewsReadTheCallerArrays) {
  const EdgeList g = gen::random_gnm(100, 600, 3);
  Executor ex(4);
  Workspace ws;
  const Csr owned = Csr::build(ex, ws, g);
  EXPECT_FALSE(owned.is_borrowed());

  const Csr borrowed = Csr::adopt(g.n, g.m(), owned.offsets(),
                                  owned.targets(), owned.edge_ids());
  EXPECT_TRUE(borrowed.is_borrowed());
  ASSERT_EQ(borrowed.num_vertices(), owned.num_vertices());
  ASSERT_EQ(borrowed.num_edges(), owned.num_edges());
  // Zero copy: the views alias the source arrays, element for element.
  EXPECT_EQ(borrowed.offsets().data(), owned.offsets().data());
  EXPECT_EQ(borrowed.targets().data(), owned.targets().data());
  EXPECT_EQ(borrowed.edge_ids().data(), owned.edge_ids().data());
  for (vid v = 0; v < g.n; ++v) {
    ASSERT_EQ(borrowed.degree(v), owned.degree(v));
    const auto bn = borrowed.neighbors(v);
    const auto on = owned.neighbors(v);
    ASSERT_TRUE(std::equal(bn.begin(), bn.end(), on.begin(), on.end()));
  }
}

TEST(CsrAdopt, MoveKeepsViewsValid) {
  // An owned Csr's views point into its own vectors; moving the Csr
  // moves the heap buffers, so the views must still be right after.
  const EdgeList g = gen::clique_chain(5, 6);
  Executor ex(2);
  Workspace ws;
  Csr a = Csr::build(ex, ws, g);
  const vid* targets_before = a.targets().data();
  Csr b = std::move(a);
  EXPECT_EQ(b.targets().data(), targets_before);
  EXPECT_EQ(b.num_vertices(), g.n);
  eid arcs = 0;
  for (vid v = 0; v < g.n; ++v) arcs += b.degree(v);
  EXPECT_EQ(arcs, 2 * g.m());
}

}  // namespace
}  // namespace parbcc
