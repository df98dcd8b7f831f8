#include <gtest/gtest.h>

#include "core/bcc.hpp"
#include "core/drivers.hpp"
#include "core/validate.hpp"
#include "engines.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"
#include "util/thread_pool.hpp"

/// FastBCC driver tests: the criticality rule on crafted trees, the
/// cross-edge-only hooking discipline, disconnected inputs through the
/// forest front end, determinism, full-width runs, and the
/// workspace/trace contract validate_trace.py relies on.

namespace parbcc {
namespace {

BccResult solve(Executor& ex, const EdgeList& g,
                BccAlgorithm algorithm = BccAlgorithm::kFastBcc) {
  return testutil::solve(ex, g, algorithm);
}

void expect_matches_reference(Executor& ex, const EdgeList& g,
                              const char* what) {
  const testutil::RefBcc ref = testutil::reference_bcc(g);
  const BccResult r = solve(ex, g);
  ASSERT_EQ(r.num_components, ref.count) << what;
  EXPECT_TRUE(testutil::same_partition(r.edge_component, ref.edge_comp))
      << what;
}

TEST(FastBcc, CraftedCriticalityShapes) {
  Executor ex(4);
  // Theta graph: two vertices joined by three disjoint paths — one
  // block, and every spanning tree leaves two non-tree edges, at least
  // one of which is a cross edge under BFS.
  expect_matches_reference(
      ex,
      EdgeList(8, {{0, 1}, {1, 2}, {2, 7}, {0, 3}, {3, 7}, {0, 4}, {4, 5},
                   {5, 6}, {6, 7}}),
      "theta");
  // Chain of cycles sharing cut vertices: every tree edge into a new
  // cycle is critical exactly at the cut vertex.
  expect_matches_reference(ex, gen::cycle_chain(6, 5), "cycle_chain");
  // Pure bridges: every child is critical, every cluster a singleton.
  expect_matches_reference(ex, gen::path(12), "path");
  // Star of triangles through one hub: the hub heads every block.
  EdgeList star(1 + 2 * 10, {});
  for (vid b = 0; b < 10; ++b) {
    star.add_edge(0, 1 + 2 * b);
    star.add_edge(0, 2 + 2 * b);
    star.add_edge(1 + 2 * b, 2 + 2 * b);
  }
  expect_matches_reference(ex, star, "star_of_triangles");
}

TEST(FastBcc, ParallelCopiesOfTreeEdgesAreBackEdges) {
  Executor ex(4);
  // A path whose interior edge is doubled: the copy is ancestor-related
  // (it duplicates a tree edge), so the hook sweep must skip it, yet it
  // still fuses the doubled edge's block per the label rule.
  EdgeList g(5, {{0, 1}, {1, 2}, {1, 2}, {2, 3}, {3, 4}});
  expect_matches_reference(ex, g, "doubled_bridge");
  // Triangle with every edge tripled.
  EdgeList t(3, {});
  for (int copy = 0; copy < 3; ++copy) {
    t.add_edge(0, 1);
    t.add_edge(1, 2);
    t.add_edge(2, 0);
  }
  expect_matches_reference(ex, t, "tripled_triangle");
}

TEST(FastBcc, RandomSmallGraphsMatchReference) {
  Executor ex(4);
  for (int seed = 1; seed <= 8; ++seed) {
    expect_matches_reference(
        ex, gen::random_connected_gnm(120, 300 + 40 * seed, seed), "gnm");
  }
}

TEST(FastBcc, DeterministicAtOneThread) {
  Executor ex(1);
  const EdgeList g = gen::random_connected_gnm(4000, 16000, 19);
  const BccResult a = solve(ex, g);
  const BccResult b = solve(ex, g);
  EXPECT_EQ(a.edge_component, b.edge_component);  // exact, not partition
  EXPECT_EQ(a.num_components, b.num_components);
}

TEST(FastBcc, FullWidthRandomAndSkewedValidate) {
  Executor ex(12);
  for (const EdgeList& g : {gen::random_connected_gnm(20000, 120000, 29),
                            gen::rmat(13, 8, 30)}) {
    const BccResult r = solve(ex, g);
    const ValidationReport report = validate_bcc(ex, g, r);
    ASSERT_TRUE(report.ok) << report.message;
  }
}

TEST(FastBcc, PeakWorkspaceUndercutsTvFilter) {
  // The headline resource claim: no 3m auxiliary graph, no per-edge
  // candidate buffers — the solve's own scratch is 3n vids past the
  // shared tree structure.  Fresh contexts so the high-water marks are
  // attributable to one driver each.
  const EdgeList g = gen::random_connected_gnm(50000, 500000, 33);
  // Warm each context first: the cold solve's peak is dominated by the
  // shared conversion scratch, which would mask the driver difference.
  BccContext fast_ctx(4);
  testutil::solve(fast_ctx, g, BccAlgorithm::kFastBcc);
  const BccResult fast = testutil::solve(fast_ctx, g, BccAlgorithm::kFastBcc);
  BccContext filter_ctx(4);
  testutil::solve(filter_ctx, g, paper::Algorithm::kTvFilter);
  const BccResult filter =
      testutil::solve(filter_ctx, g, paper::Algorithm::kTvFilter);
  ASSERT_EQ(fast.num_components, filter.num_components);
  EXPECT_TRUE(
      testutil::same_partition(fast.edge_component, filter.edge_component));
  EXPECT_LT(fast.peak_workspace_bytes, filter.peak_workspace_bytes);
}

TEST(FastBcc, TraceExposesSkeletonSpansAndCounters) {
  Executor ex(4);
  const EdgeList g = gen::random_connected_gnm(5000, 25000, 37);
  const BccResult r = solve(ex, g);
  ASSERT_NE(r.trace.find_path("FastBCC"), nullptr);
  EXPECT_NE(r.trace.find_path("FastBCC/connected_components/skeleton_hook"),
            nullptr);
  EXPECT_NE(r.trace.find_path("FastBCC/low_high"), nullptr);
  EXPECT_NE(r.trace.find_path("FastBCC/connected_components"), nullptr);
  // The whole auxiliary-graph pipeline is bypassed: no aux span at any
  // depth (find_path is exact, so scan names).
  for (const TracePhase& phase : r.trace.phases) {
    EXPECT_NE(phase.name.substr(0, 4), "aux_") << phase.path;
  }
  // Dense random graphs have cross edges and multi-vertex clusters.
  EXPECT_GT(r.trace.counter_total("fastbcc_cross_edges"), 0.0);
  EXPECT_GT(r.trace.counter_total("fastbcc_hooks"), 0.0);
  EXPECT_GT(r.trace.counter_total("fastbcc_critical"), 0.0);
  // Step times route through the FastBCC span set (no filtering step).
  EXPECT_GT(r.times.spanning_tree, 0.0);
  EXPECT_EQ(r.times.filtering, 0.0);
}

/// Disconnected inputs straight into the driver, no dispatcher: the
/// forest front end (one connected-components pass naming a root per
/// component, a multi-source BFS, the forest hung under a virtual root)
/// must give HT's partition at every width.
class FastBccForest : public ::testing::TestWithParam<int> {};

EdgeList giant_plus_dust() {
  // A random giant on [0, 3000), then dust: isolated vertices, pairs
  // and triangles interleaved over [3000, 4200).
  EdgeList g = gen::random_connected_gnm(3000, 9000, 41);
  g.n = 4200;
  for (vid v = 3000; v + 6 <= g.n; v += 6) {
    g.add_edge(v + 1, v + 2);
    g.add_edge(v + 3, v + 4);
    g.add_edge(v + 4, v + 5);
    g.add_edge(v + 5, v + 3);
  }
  return g;
}

TEST_P(FastBccForest, DirectDriverMatchesHopcroftTarjan) {
  const int p = GetParam();
  Executor ex(p);
  Workspace ws;

  EdgeList isolated = gen::cycle(40);
  isolated.n = 100;  // 60 isolated vertices, the cycle holds the root
  EdgeList pairs(20000, {});
  for (vid v = 0; v < pairs.n; v += 2) pairs.add_edge(v, v + 1);
  EdgeList parallel(9, {{0, 1}, {0, 1}, {1, 2}, {4, 5}, {4, 5}, {4, 5},
                        {5, 6}, {6, 4}, {7, 8}, {8, 7}});
  const EdgeList none(50, {});
  const EdgeList dust = giant_plus_dust();
  const struct {
    const char* name;
    const EdgeList* g;
    vid root;
  } cases[] = {
      {"isolated", &isolated, 0},
      {"all_isolated", &none, 7},
      {"10k_pairs", &pairs, 0},
      {"giant_plus_dust", &dust, 0},
      {"root_in_small_component", &dust, 3004},
      {"root_isolated", &dust, 3000},
      {"parallel_edges", &parallel, 5},
  };
  for (const auto& c : cases) {
    const PreparedGraph pg(ex, ws, *c.g);
    Trace trace(p);
    const BccResult fast =
        fast_bcc(ex, ws, pg, c.root, /*cut_info=*/false, trace);
    const BccResult ht =
        testutil::solve(ex, *c.g, Engine(BccAlgorithm::kSequential));
    ASSERT_EQ(fast.num_components, ht.num_components) << c.name;
    EXPECT_TRUE(testutil::same_partition(fast.edge_component,
                                         ht.edge_component))
        << c.name << " p=" << p;
    // Only a disconnected input pays for the connectivity pass.
    EXPECT_NE(trace.report().find_path("spanning_tree/component_roots"),
              nullptr)
        << c.name;
  }

  // A connected input never runs it.
  const EdgeList connected = gen::random_connected_gnm(2000, 6000, 43);
  const PreparedGraph pg(ex, ws, connected);
  Trace trace(p);
  fast_bcc(ex, ws, pg, /*root=*/0, /*cut_info=*/false, trace);
  EXPECT_EQ(trace.report().find_path("spanning_tree/component_roots"),
            nullptr);
}

INSTANTIATE_TEST_SUITE_P(Widths, FastBccForest, ::testing::Values(1, 4, 12));

TEST(FastBcc, LabelsAreExactAcrossWidths) {
  // Block ids number each block's smallest non-head vertex, and every
  // union-find root is its cluster's minimum, so the ids — not just the
  // partition — are the same at every p for a given root.
  const EdgeList connected = gen::random_connected_gnm(3000, 6000, 11);
  const EdgeList forest = gen::random_gnm(3000, 3600, 12);
  for (const EdgeList* g : {&connected, &forest}) {
    for (const vid root : {vid{0}, vid{1234}}) {
      std::vector<vid> first;
      for (const int p : {1, 4, 12}) {
        Executor ex(p);
        SolveOptions opt;
        opt.root = root;
        const BccResult r =
            testutil::solve(ex, *g, Engine(BccAlgorithm::kFastBcc), opt);
        if (first.empty()) {
          first = r.edge_component;
          continue;
        }
        EXPECT_EQ(r.edge_component, first)
            << (g == &connected ? "connected" : "forest") << " root=" << root
            << " p=" << p;
      }
    }
  }
}

TEST(FastBcc, DisconnectedThroughDispatcherMatchesReference) {
  Executor ex(4);
  // Triangle + 4-cycle + path + isolated vertices.
  const EdgeList g(14, {{0, 1},
                        {1, 2},
                        {2, 0},
                        {4, 5},
                        {5, 6},
                        {6, 7},
                        {7, 4},
                        {9, 10},
                        {10, 11}});
  expect_matches_reference(ex, g, "disconnected");
}

}  // namespace
}  // namespace parbcc
