#include <gtest/gtest.h>

#include "core/bcc.hpp"
#include "forest.hpp"
#include "graph/generators.hpp"
#include "spanning/certificate.hpp"
#include "test_util.hpp"
#include "util/thread_pool.hpp"

namespace parbcc {
namespace {

bool has_bridge(Executor& ex, const EdgeList& g) {
  BccOptions opt;
  const BccResult r = testutil::solve(ex, g, opt);
  return !r.bridges.empty();
}

bool is_biconnected(Executor& ex, const EdgeList& g) {
  BccOptions opt;
  const BccResult r = testutil::solve(ex, g, opt);
  if (r.num_components != 1) return false;
  for (const auto a : r.is_articulation) {
    if (a) return false;
  }
  return true;
}

TEST(Certificate, ForestsAreDisjointMaximalAndBounded) {
  Executor ex(3);
  Workspace ws;
  const EdgeList g = gen::random_connected_gnm(500, 4000, 3);
  const SparseCertificate cert = sparse_certificate_vertex(ex, ws, g, 3);
  ASSERT_EQ(cert.forest_offsets.size(), 4u);
  EXPECT_LE(cert.edges.size(), 3u * (g.n - 1));
  std::vector<std::uint8_t> seen(g.m(), 0);
  for (unsigned f = 0; f < 3; ++f) {
    std::vector<eid> forest(cert.edges.begin() + cert.forest_offsets[f],
                            cert.edges.begin() + cert.forest_offsets[f + 1]);
    EXPECT_TRUE(is_forest(g.n, g.edges, forest)) << "forest " << f;
    // The first forest of a connected graph is spanning.
    if (f == 0) {
      EXPECT_EQ(forest.size(), g.n - 1);
    }
    for (const eid e : forest) {
      EXPECT_FALSE(seen[e]) << "edge reused across forests";
      seen[e] = 1;
    }
  }
}

TEST(Certificate, K1PreservesConnectivity) {
  Executor ex(2);
  Workspace ws;
  const EdgeList g = gen::random_gnm(800, 900, 7);  // disconnected mix
  const SparseCertificate cert = sparse_certificate_vertex(ex, ws, g, 1);
  const EdgeList sub = cert.subgraph(g);
  EXPECT_EQ(testutil::component_count(sub), testutil::component_count(g));
}

class CertParam : public ::testing::TestWithParam<int> {};

TEST_P(CertParam, K2BfsVariantPreservesBiconnectivity) {
  const int seed = GetParam();
  Executor ex(3);
  Workspace ws;
  const EdgeList g = gen::random_connected_gnm(300, 1800, seed);
  const SparseCertificate cert = sparse_certificate_vertex(ex, ws, g, 2);
  const EdgeList sub = cert.subgraph(g);
  EXPECT_EQ(is_biconnected(ex, g), is_biconnected(ex, sub));
  // Stronger (paper Theorem 2): the BFS-based k=2 certificate keeps the
  // whole block structure — same number of blocks, same articulation
  // vertices.
  BccOptions opt;
  const BccResult full = testutil::solve(ex, g, opt);
  const BccResult sparse = testutil::solve(ex, sub, opt);
  EXPECT_EQ(full.num_components, sparse.num_components);
  EXPECT_EQ(full.is_articulation, sparse.is_articulation);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CertParam, ::testing::Range(1, 9));

TEST(Certificate, BridgeGraphKeepsItsBridge) {
  Executor ex(2);
  Workspace ws;
  // Two cliques joined by one bridge.
  const EdgeList g = gen::barbell(6, 1);
  const SparseCertificate cert = sparse_certificate_vertex(ex, ws, g, 2);
  EXPECT_TRUE(has_bridge(ex, cert.subgraph(g)));
}

TEST(Certificate, RejectsKZero) {
  Executor ex(1);
  Workspace ws;
  const EdgeList g = gen::cycle(4);
  EXPECT_THROW(sparse_certificate_vertex(ex, ws, g, 0), std::invalid_argument);
}

}  // namespace
}  // namespace parbcc
