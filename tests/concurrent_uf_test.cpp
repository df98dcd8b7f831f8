#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "connectivity/concurrent_union_find.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/workspace.hpp"

/// Unit tests of the lock-free union-find behind connected_components,
/// FastBCC's skeleton and the fused aux-graph kernel.  The contract
/// under test: after any schedule of concurrent unite calls followed by
/// a barrier, every find returns the minimum vertex id of the component
/// — the labels the sequential oracle produces.

namespace parbcc {
namespace {

/// Hook every edge from an SPMD region, one block per thread.
std::uint64_t hook_all(Executor& ex, const ConcurrentUnionFind& uf,
                       std::span<const Edge> edges) {
  std::vector<std::uint64_t> hooks(static_cast<std::size_t>(ex.threads()), 0);
  ex.parallel_blocks(edges.size(),
                     [&](int tid, std::size_t begin, std::size_t end) {
                       std::uint64_t h = 0;
                       std::uint64_t steps = 0;
                       for (std::size_t e = begin; e < end; ++e) {
                         h += uf.unite(edges[e].u, edges[e].v, steps) ? 1 : 0;
                       }
                       hooks[static_cast<std::size_t>(tid)] = h;
                     });
  std::uint64_t total = 0;
  for (const std::uint64_t h : hooks) total += h;
  return total;
}

std::vector<vid> labels_of(const ConcurrentUnionFind& uf, vid n) {
  std::vector<vid> labels(n);
  std::uint64_t steps = 0;
  for (vid v = 0; v < n; ++v) labels[v] = uf.find(v, steps);
  return labels;
}

TEST(ConcurrentUnionFind, SequentialMatchesOracleExactly) {
  Executor ex(1);
  const EdgeList g = gen::random_gnm(500, 700, 11);
  std::vector<vid> parent(g.n);
  const ConcurrentUnionFind uf{parent};
  ConcurrentUnionFind::init(ex, parent);
  hook_all(ex, uf, g.edges);
  EXPECT_EQ(labels_of(uf, g.n), testutil::connected_components_seq(g.n, g.edges));
}

class CufParam : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CufParam, ConcurrentHooksConvergeToComponentMinima) {
  const auto [threads, seed] = GetParam();
  Executor ex(threads);
  // A mix that stresses long chains (paths) and heavy contention on
  // one root (near-star random graphs).
  const EdgeList g = gen::random_gnm(4000, 6000, static_cast<std::uint64_t>(
                                                     seed) *
                                                     31 +
                                                     7);
  std::vector<vid> parent(g.n);
  const ConcurrentUnionFind uf{parent};
  ConcurrentUnionFind::init(ex, parent);
  const std::uint64_t hooks = hook_all(ex, uf, g.edges);

  const std::vector<vid> expect = testutil::connected_components_seq(g.n, g.edges);
  EXPECT_EQ(labels_of(uf, g.n), expect);

  // Forest accounting: every successful hook merged two components.
  std::vector<vid> distinct = expect;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  EXPECT_EQ(static_cast<std::uint64_t>(g.n) - hooks, distinct.size());

  // parent[v] <= v is the kernel's structural invariant (hooks point
  // larger roots at smaller ids, halving installs ancestors only).
  for (vid v = 0; v < g.n; ++v) EXPECT_LE(parent[v], v);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CufParam,
                         ::testing::Combine(::testing::Values(1, 4, 12),
                                            ::testing::Values(1, 2, 3, 4)));

TEST(ConcurrentUnionFind, FlattenLeavesStarForest) {
  Executor ex(4);
  const EdgeList g = gen::random_gnm(2000, 2500, 77);
  std::vector<vid> parent(g.n);
  const ConcurrentUnionFind uf{parent};
  ConcurrentUnionFind::init(ex, parent);
  hook_all(ex, uf, g.edges);
  uf.flatten(ex);
  for (vid v = 0; v < g.n; ++v) {
    EXPECT_EQ(parent[parent[v]], parent[v]) << "not a star at " << v;
  }
  EXPECT_EQ(labels_of(uf, g.n), testutil::connected_components_seq(g.n, g.edges));
}

TEST(ConcurrentUnionFind, UniteReportsEachMergeOnce) {
  // On a path every edge is a spanning edge: exactly n-1 hooks total,
  // no matter how the threads interleave.
  Executor ex(12);
  const vid n = 20000;
  std::vector<Edge> path;
  path.reserve(n - 1);
  for (vid v = 1; v < n; ++v) path.push_back({static_cast<vid>(v - 1), v});
  // Shuffle so adjacent edges land on different threads.
  Xoshiro256 rng(5);
  for (std::size_t i = path.size(); i > 1; --i) {
    std::swap(path[i - 1], path[rng.below(i)]);
  }
  std::vector<vid> parent(n);
  const ConcurrentUnionFind uf{parent};
  ConcurrentUnionFind::init(ex, parent);
  EXPECT_EQ(hook_all(ex, uf, path), static_cast<std::uint64_t>(n) - 1);
  std::uint64_t steps = 0;
  for (vid v = 0; v < n; ++v) EXPECT_EQ(uf.find(v, steps), 0u);
}

}  // namespace
}  // namespace parbcc
