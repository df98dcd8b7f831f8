#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/bcc.hpp"
#include "core/bcc_context.hpp"
#include "graph/generators.hpp"
#include "server/snapshot.hpp"
#include "util/rng.hpp"

// "Does removing v separate a from b?" answered on the public Snapshot
// API (path_articulation over the block-cut forest), checked against a
// delete-v-then-BFS brute force.

namespace parbcc {
namespace {

using server::Snapshot;

Snapshot make_snapshot(BccContext& ctx, const EdgeList& g) {
  BccOptions opt;
  opt.compute_cut_info = true;
  const BccResult result = biconnected_components(ctx, g, opt);
  return Snapshot(ctx.executor(), g, result, 0);
}

/// BFS connectivity of u and v with vertex `skip` removed (kNoVertex
/// skips nothing).
bool connected_avoiding(const EdgeList& g, vid u, vid v, vid skip) {
  if (u == skip || v == skip) return false;
  std::vector<std::vector<vid>> adj(g.n);
  for (const Edge& e : g.edges) {
    if (e.u == skip || e.v == skip) continue;
    adj[e.u].push_back(e.v);
    adj[e.v].push_back(e.u);
  }
  std::vector<std::uint8_t> seen(g.n, 0);
  std::vector<vid> queue{u};
  seen[u] = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (const vid w : adj[queue[head]]) {
      if (!seen[w]) {
        seen[w] = 1;
        queue.push_back(w);
      }
    }
  }
  return seen[v] != 0;
}

/// Vertex v separates a from b iff its cut node lies strictly inside
/// the block-cut-tree path between them: the articulation counts of
/// the a-v and v-b halves plus v itself add up to the whole path's.
bool snapshot_separates(const Snapshot& snap, vid v, vid a, vid b) {
  if (v == a || v == b || a == b || !snap.is_cut(v)) return false;
  const vid whole = snap.path_articulation(a, b);
  const vid to_v = snap.path_articulation(a, v);
  // Once a reaches v, b does too, so the v-b half is finite as well.
  return whole != kNoVertex && to_v != kNoVertex &&
         to_v + 1 + snap.path_articulation(v, b) == whole;
}

/// Brute force: delete v, then BFS from a.  Pairs already disconnected
/// with v present are never separated.
bool brute_separates(const EdgeList& g, vid v, vid a, vid b) {
  return connected_avoiding(g, a, b, kNoVertex) &&
         !connected_avoiding(g, a, b, v);
}

TEST(Separation, TwoTrianglesAndABridge) {
  BccContext ctx(2);
  //     0        4
  //    / \      / \.
  //   1---2 -- 3---5
  const EdgeList g(6, {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 5},
                       {5, 3}});
  const Snapshot snap = make_snapshot(ctx, g);
  EXPECT_TRUE(snapshot_separates(snap, 2, 0, 4));
  EXPECT_TRUE(snapshot_separates(snap, 3, 0, 4));
  EXPECT_TRUE(snapshot_separates(snap, 2, 1, 3));
  EXPECT_FALSE(snapshot_separates(snap, 4, 3, 5));  // triangle survives
  EXPECT_FALSE(snapshot_separates(snap, 0, 1, 2));
  EXPECT_FALSE(snapshot_separates(snap, 3, 0, 2));  // same side of the cut
  EXPECT_NE(snap.path_articulation(0, 5), kNoVertex);
}

TEST(Separation, DisconnectedPairsNeverSeparated) {
  BccContext ctx(2);
  const EdgeList g(6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
  const Snapshot snap = make_snapshot(ctx, g);
  EXPECT_EQ(snap.path_articulation(0, 3), kNoVertex);
  EXPECT_FALSE(snapshot_separates(snap, 1, 0, 3));
  EXPECT_NE(snap.path_articulation(3, 5), kNoVertex);
}

TEST(Separation, IsolatedVertices) {
  BccContext ctx(1);
  const EdgeList g(4, {{0, 1}});
  const Snapshot snap = make_snapshot(ctx, g);
  EXPECT_EQ(snap.path_articulation(0, 2), kNoVertex);
  EXPECT_FALSE(snapshot_separates(snap, 1, 0, 2));
  EXPECT_EQ(snap.path_articulation(2, 2), 0u);
}

TEST(Separation, PathInteriorSeparatesEnds) {
  BccContext ctx(2);
  const Snapshot snap = make_snapshot(ctx, gen::path(10));
  for (vid v = 1; v < 9; ++v) {
    EXPECT_TRUE(snapshot_separates(snap, v, 0, 9)) << v;
    EXPECT_TRUE(snapshot_separates(snap, v, v - 1, v + 1)) << v;
  }
  EXPECT_FALSE(snapshot_separates(snap, 5, 0, 4));
  EXPECT_FALSE(snapshot_separates(snap, 5, 6, 9));
}

TEST(Separation, DegenerateQueriesAreFalse) {
  BccContext ctx(1);
  const Snapshot snap = make_snapshot(ctx, gen::path(4));
  EXPECT_FALSE(snapshot_separates(snap, 1, 1, 2));  // v is an endpoint
  EXPECT_FALSE(snapshot_separates(snap, 1, 0, 1));
  EXPECT_FALSE(snapshot_separates(snap, 2, 1, 1));  // a == b
  EXPECT_FALSE(snapshot_separates(snap, 9, 0, 3));  // v out of range
  EXPECT_FALSE(snapshot_separates(snap, 1, 0, 9));  // b out of range
}

class SeparationParam : public ::testing::TestWithParam<int> {};

TEST_P(SeparationParam, MatchesBruteForceOnRandomGraphs) {
  const int seed = GetParam();
  BccContext ctx(3);
  // Sparse enough to have many cut vertices and some disconnection.
  const EdgeList g = gen::random_gnm(120, 140, seed);
  const Snapshot snap = make_snapshot(ctx, g);
  Xoshiro256 rng(seed * 5 + 2);
  for (int q = 0; q < 400; ++q) {
    const vid v = static_cast<vid>(rng.below(g.n));
    const vid a = static_cast<vid>(rng.below(g.n));
    const vid b = static_cast<vid>(rng.below(g.n));
    if (v == a || v == b) continue;
    ASSERT_EQ(snapshot_separates(snap, v, a, b), brute_separates(g, v, a, b))
        << "v=" << v << " a=" << a << " b=" << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SeparationParam, ::testing::Range(0, 10));

}  // namespace
}  // namespace parbcc
