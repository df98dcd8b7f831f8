#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "connectivity/components.hpp"
#include "core/batch_dynamic.hpp"
#include "core/bcc.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace parbcc {
namespace {

/// The engine's contract: after every batch the standing result equals
/// a from-scratch static solve of the standing graph.  Labels are
/// partition-canonical (bcc_result.hpp), so both sides are compared
/// after first-appearance normalization — identical partitions
/// normalize to identical vectors, any algorithm is a valid oracle.
void expect_matches_static(const BatchDynamicBcc& dyn) {
  BccOptions opt;
  opt.compute_cut_info = true;
  Executor ex(1);
  const BccResult ref = testutil::solve(ex, dyn.graph(), opt);
  ASSERT_EQ(dyn.result().num_components, ref.num_components);
  std::vector<vid> got = dyn.result().edge_component;
  std::vector<vid> want = ref.edge_component;
  normalize_labels(got);
  normalize_labels(want);
  ASSERT_EQ(got, want);
  ASSERT_EQ(dyn.result().is_articulation, ref.is_articulation);
  ASSERT_EQ(dyn.result().bridges, ref.bridges);
}

/// One random edit stream: alternating batches of random insertions
/// (fresh endpoints; duplicates of standing edges allowed) and random
/// unique deletions, each batch checked against the static oracle.
void run_fuzz_stream(int threads, std::uint64_t seed,
                     double damage_threshold) {
  const vid n = 300;
  Xoshiro256 rng(splitmix64(seed) ^ 0x5eed);
  EdgeList base = gen::random_gnm(n, 600, seed);

  BccContext ctx(threads);
  BatchDynamicOptions opt;
  opt.damage_threshold = damage_threshold;
  BatchDynamicBcc dyn(ctx, base, opt);
  expect_matches_static(dyn);

  for (int round = 0; round < 8; ++round) {
    std::vector<Edge> ins;
    const int num_ins = static_cast<int>(rng() % 12);
    for (int i = 0; i < num_ins; ++i) {
      const vid u = static_cast<vid>(rng() % n);
      vid v = static_cast<vid>(rng() % n);
      if (u == v) v = (v + 1) % n;
      ins.push_back({u, v});
    }
    std::vector<eid> dels;
    const eid m = dyn.graph().m();
    if (m > 0) {
      const int num_del = static_cast<int>(rng() % std::min<eid>(m, 12));
      std::vector<std::uint8_t> used(m, 0);
      for (int i = 0; i < num_del; ++i) {
        const eid e = static_cast<eid>(rng() % m);
        if (used[e]) continue;
        used[e] = 1;
        dels.push_back(e);
      }
    }
    dyn.apply_batch(ins, dels);
    expect_matches_static(dyn);
  }
}

class BatchDynamicFuzz
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(BatchDynamicFuzz, MatchesStaticSolveAfterEveryBatch) {
  const auto [threads, seed] = GetParam();
  // Even seeds use the default threshold (small graphs cross it, so
  // both the splice and the fallback path run); odd seeds never fall
  // back, hammering the region splice alone.
  run_fuzz_stream(threads, seed, seed % 2 == 0 ? 0.15 : 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByThreads, BatchDynamicFuzz,
    ::testing::Combine(::testing::Values(1, 4, 12),
                       ::testing::Values(0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u)));

TEST(BatchDynamic, StructuredEdits) {
  // Path 0-1-2-3-4: all bridges.
  BccContext ctx(4);
  BatchDynamicOptions opt;
  opt.damage_threshold = 1.0;  // exercise the splice on a tiny graph
  BatchDynamicBcc dyn(ctx, gen::path(5), opt);
  ASSERT_EQ(dyn.result().num_components, 4u);
  ASSERT_EQ(dyn.result().bridges.size(), 4u);

  // Close the cycle: one block, no articulation points.
  const Edge close{0, 4};
  dyn.apply_batch({&close, 1}, {});
  expect_matches_static(dyn);
  ASSERT_EQ(dyn.result().num_components, 1u);
  ASSERT_TRUE(dyn.result().bridges.empty());

  // Delete one cycle edge: back to a path of bridges.
  const eid victim = 2;
  dyn.apply_batch({}, {&victim, 1});
  expect_matches_static(dyn);
  ASSERT_EQ(dyn.result().num_components, 4u);
  ASSERT_EQ(dyn.result().bridges.size(), 4u);
}

TEST(BatchDynamic, ComponentJoiningInsertions) {
  // Two disjoint triangles; batched insertions weld them into one
  // block (the anchor-path interaction case: the second insertion's
  // cycle runs through blocks of both old components).
  EdgeList g(6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
  BccContext ctx(2);
  BatchDynamicOptions opt;
  opt.damage_threshold = 1.0;
  BatchDynamicBcc dyn(ctx, g, opt);
  ASSERT_EQ(dyn.result().num_components, 2u);

  const std::vector<Edge> weld{{0, 3}, {1, 4}};
  dyn.apply_batch(weld, {});
  expect_matches_static(dyn);
  ASSERT_EQ(dyn.result().num_components, 1u);
  ASSERT_FALSE(dyn.last_batch().fell_back);
}

TEST(BatchDynamic, ParallelEdgeUnbridges) {
  EdgeList g(3, {{0, 1}, {1, 2}});
  BccContext ctx(1);
  BatchDynamicOptions opt;
  opt.damage_threshold = 1.0;
  BatchDynamicBcc dyn(ctx, g, opt);
  ASSERT_EQ(dyn.result().bridges.size(), 2u);

  const Edge dup{0, 1};
  dyn.apply_batch({&dup, 1}, {});
  expect_matches_static(dyn);
  ASSERT_EQ(dyn.result().bridges.size(), 1u);
}

TEST(BatchDynamic, BridgeDeletionDisconnects) {
  EdgeList g(6, {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 5}, {5, 3}});
  BccContext ctx(2);
  BatchDynamicOptions opt;
  opt.damage_threshold = 1.0;
  BatchDynamicBcc dyn(ctx, g, opt);

  const eid bridge = 3;  // {2, 3}
  dyn.apply_batch({}, {&bridge, 1});
  expect_matches_static(dyn);
  ASSERT_EQ(dyn.result().num_components, 2u);

  // Reconnect across the (stale-true for the incremental tracker) cut,
  // which exercises the visit-stamp re-anchoring path.
  const Edge rejoin{0, 4};
  dyn.apply_batch({&rejoin, 1}, {});
  expect_matches_static(dyn);
}

TEST(BatchDynamic, ChainedMovesKeepBridgeList) {
  // A path is all bridges.  Deleting ids 6 and 7 of 9 moves edge 8 into
  // hole 7, then on into hole 6: the bridge list must follow the edge
  // to its final id and drop the stale one.
  BccContext ctx(1);
  BatchDynamicOptions opt;
  opt.damage_threshold = 1.0;
  BatchDynamicBcc dyn(ctx, gen::path(10), opt);
  const std::vector<eid> dels = {6, 7};
  dyn.apply_batch({}, dels);
  expect_matches_static(dyn);
  ASSERT_EQ(dyn.result().bridges.size(), 7u);
  ASSERT_FALSE(dyn.last_batch().fell_back);

  // A cycle's only deletion cannot split it (no split check runs); two
  // deletions in one cycle do split it.
  const Edge close{0, 6};
  dyn.apply_batch({&close, 1}, {});
  expect_matches_static(dyn);
  const std::vector<eid> one = {0};  // {0, 1}
  dyn.apply_batch({}, one);
  expect_matches_static(dyn);
  const Edge reclose{0, 1};
  dyn.apply_batch({&reclose, 1}, {});
  expect_matches_static(dyn);
  const std::vector<eid> two = {1, 3};  // {1, 2} and {3, 4}
  dyn.apply_batch({}, two);
  expect_matches_static(dyn);
  ASSERT_EQ(dyn.result().num_components, 6u);
  // {2, 3} split off; only exact component ids let the rejoin splice
  // without a search that would run dry and force a fallback.
  const Edge rejoin{2, 0};
  dyn.apply_batch({&rejoin, 1}, {});
  expect_matches_static(dyn);
  ASSERT_FALSE(dyn.last_batch().fell_back);
}

TEST(BatchDynamic, HubRegionFallsBackToLabelSweep) {
  // Friendship graph: 60 triangles sharing hub 0.  Flooding any
  // flagged triangle scans the hub's 120 arcs, past half of m = 180,
  // so the region is collected by the label sweep instead.
  constexpr vid kTriangles = 60;
  Trace trace(4);
  EdgeList g(1 + 2 * kTriangles, {});
  for (vid t = 0; t < kTriangles; ++t) {
    const vid a = 1 + 2 * t;
    g.edges.push_back({0, a});
    g.edges.push_back({0, a + 1});
    g.edges.push_back({a, a + 1});
  }
  BccContext ctx(4);
  BatchDynamicOptions opt;
  opt.damage_threshold = 1.0;
  opt.trace = &trace;
  BatchDynamicBcc dyn(ctx, g, opt);
  const std::vector<eid> dels = {2, 5, 8};  // three rims
  const std::vector<Edge> ins = {{1, 3}, {7, 9}};
  const Trace::Mark mark = trace.mark();
  dyn.apply_batch(ins, dels);
  expect_matches_static(dyn);
  ASSERT_FALSE(dyn.last_batch().fell_back);
  EXPECT_EQ(trace.report_since(mark).counter_total("batch_region_sweeps"),
            1.0);
}

TEST(BatchDynamic, FallbackReseedKeepsComponentIdsExact) {
  // Components: A = triangles {0,1,2} and {3,4,5} joined by the bridge
  // {2,3}; B = triangle {6,7,8}; C = triangle {9,10,11}; D = a 40-cycle
  // on 12..51; 52..99 isolated.  Deleting a D edge flags the whole
  // cycle block (40 of 100 vertices), so the first batch falls back;
  // every later batch touches a few vertices and must splice.
  const vid n = 100;
  EdgeList g(n, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {2, 3},
                 {6, 7}, {7, 8}, {8, 6}, {9, 10}, {10, 11}, {11, 9}});
  for (vid i = 0; i < 40; ++i) g.edges.push_back({12 + i, 12 + (i + 1) % 40});
  BccContext ctx(4);
  BatchDynamicOptions opt;
  opt.damage_threshold = 0.15;
  BatchDynamicBcc dyn(ctx, g, opt);
  expect_matches_static(dyn);

  // One fallback batch splits A (bridge {2,3} is edge 6), joins B and
  // C, and opens the cycle (edge 13 is {12,13}).  The engine skips id
  // maintenance once it has decided to fall back, so everything below
  // reads the reseeded ids.
  const std::vector<eid> split{6, 13};
  const Edge join{8, 9};
  dyn.apply_batch({&join, 1}, split);
  ASSERT_TRUE(dyn.last_batch().fell_back);
  expect_matches_static(dyn);

  // {0,4} now crosses components: a bridge, no search.  With A's stale
  // single id it would be a same-component search that cannot meet.
  const Edge cross{0, 4};
  dyn.apply_batch({&cross, 1}, {});
  ASSERT_FALSE(dyn.last_batch().fell_back);
  expect_matches_static(dyn);

  // {6,11} is now same-component: its path merges B, the bridge {8,9}
  // and C into one block.  Stale ids would make it a lone bridge.
  const Edge same{6, 11};
  dyn.apply_batch({&same, 1}, {});
  ASSERT_FALSE(dyn.last_batch().fell_back);
  expect_matches_static(dyn);
  ASSERT_EQ(dyn.result().edge_component[7],
            dyn.result().edge_component[10]);

  // {1,5} joins the halves of A again through the reseed-era union.
  const Edge rejoin{1, 5};
  dyn.apply_batch({&rejoin, 1}, {});
  ASSERT_FALSE(dyn.last_batch().fell_back);
  expect_matches_static(dyn);
  ASSERT_EQ(dyn.fallbacks(), 1u);
}

TEST(BatchDynamic, DisconnectedBaseSeedsExactComponents) {
  // Component ids come from SV's smallest-vertex-id roots: components
  // whose smallest id is not 0, isolated vertices, and parallel edges.
  const vid n = 60;
  const EdgeList g(n, {{10, 11}, {11, 12}, {12, 13}, {13, 14}, {14, 10},
                       {21, 22}, {20, 21}, {21, 20},
                       {33, 31}, {31, 35}, {35, 33}, {35, 37},
                       {40, 41}, {41, 42}, {42, 40}, {42, 43}, {43, 44},
                       {44, 42}, {57, 58}, {58, 57}});
  for (const int threads : {1, 4}) {
    BccContext ctx(threads);
    BatchDynamicOptions opt;
    opt.damage_threshold = 1.0;
    BatchDynamicBcc dyn(ctx, g, opt);
    expect_matches_static(dyn);

    // Cross-component insertions, one into an isolated vertex: each
    // is a fresh bridge, spliced without any search.
    const std::vector<Edge> cross{{12, 21}, {0, 44}, {37, 59}, {22, 58}};
    const eid first = dyn.graph().m();
    dyn.apply_batch(cross, {});
    ASSERT_FALSE(dyn.last_batch().fell_back);
    expect_matches_static(dyn);
    for (eid e = first; e < first + cross.size(); ++e) {
      ASSERT_TRUE(std::binary_search(dyn.result().bridges.begin(),
                                     dyn.result().bridges.end(), e));
    }

    // Same-component insertions (two of them only through the joins
    // above) merge the blocks along their paths.
    const std::vector<Edge> same{{10, 22}, {31, 37}, {40, 44}, {0, 40}};
    dyn.apply_batch(same, {});
    ASSERT_FALSE(dyn.last_batch().fell_back);
    expect_matches_static(dyn);
    ASSERT_EQ(dyn.fallbacks(), 0u);
  }
}

TEST(BatchDynamic, EmptyBatchIsIdentity) {
  BccContext ctx(1);
  BatchDynamicBcc dyn(ctx, gen::clique_chain(3, 4), {});
  const std::vector<vid> before = dyn.result().edge_component;
  dyn.apply_batch({}, {});
  expect_matches_static(dyn);
  ASSERT_EQ(dyn.result().edge_component, before);
  ASSERT_EQ(dyn.last_batch().touched_vertices, 0u);
  ASSERT_EQ(dyn.last_batch().region_edges, 0u);
}

TEST(BatchDynamic, FallbackBoundary) {
  // threshold 0 forces the fallback on any non-empty damage; threshold
  // 1 never falls back.  Same edit, both sides of the boundary.
  for (const double threshold : {0.0, 1.0}) {
    BccContext ctx(2);
    BatchDynamicOptions opt;
    opt.damage_threshold = threshold;
    BatchDynamicBcc dyn(ctx, gen::grid_torus(5, 5), opt);
    const Edge chord{0, 12};
    dyn.apply_batch({&chord, 1}, {});
    expect_matches_static(dyn);
    ASSERT_EQ(dyn.last_batch().fell_back, threshold == 0.0);
    ASSERT_EQ(dyn.fallbacks(), threshold == 0.0 ? 1u : 0u);
    ASSERT_GT(dyn.last_batch().touched_vertices, 0u);
  }
}

TEST(BatchDynamic, DenseRegionMatchesStatic) {
  // K20 region: ~9.5 edges per vertex, one block.
  BccContext ctx(4);
  BatchDynamicOptions opt;
  opt.damage_threshold = 1.0;
  BatchDynamicBcc dyn(ctx, gen::complete(20), opt);

  const eid victim = 0;
  const Edge chord{0, 1};
  dyn.apply_batch({&chord, 1}, {&victim, 1});
  expect_matches_static(dyn);
  ASSERT_FALSE(dyn.last_batch().fell_back);

  // A chain of 40 K8s: each batch deletes a few clique edges (flagging
  // their dense blocks) and re-inserts the previous batch's victims.
  BatchDynamicBcc chain(ctx, gen::clique_chain(40, 8), opt);
  Xoshiro256 rng(40);
  std::vector<Edge> down;
  for (int round = 0; round < 8; ++round) {
    std::vector<eid> dels;
    const eid m = chain.graph().m();
    for (int i = 0; i < 4; ++i) {
      const eid e = static_cast<eid>(rng() % m);
      if (std::find(dels.begin(), dels.end(), e) == dels.end()) {
        dels.push_back(e);
      }
    }
    const std::vector<Edge> ins = std::move(down);
    down.clear();
    for (const eid e : dels) down.push_back(chain.graph().edges[e]);
    chain.apply_batch(ins, dels);
    expect_matches_static(chain);
    ASSERT_FALSE(chain.last_batch().fell_back);
    ASSERT_GT(chain.last_batch().region_edges, 0u);
  }
}

TEST(BatchDynamic, SparseRegionSolvedDirectly) {
  BccContext ctx(1);
  BatchDynamicOptions opt;
  opt.damage_threshold = 1.0;
  BatchDynamicBcc dyn(ctx, gen::path(20), opt);
  const Edge chord{0, 5};
  dyn.apply_batch({&chord, 1}, {});
  expect_matches_static(dyn);
}

TEST(BatchDynamic, SplitCheckPastSearchCapFallsBack) {
  // Deleting two opposite edges of a 300k cycle leaves two 150k arcs:
  // the split check's sides both pass the 2^16 search cap before either
  // runs dry, so the verdict is unaffordable and the batch falls back.
  constexpr vid n = 300000;
  BccContext ctx(4);
  BatchDynamicOptions opt;
  opt.damage_threshold = 1.0;
  BatchDynamicBcc dyn(ctx, gen::cycle(n), opt);
  const std::vector<eid> dels = {0, n / 2};
  dyn.apply_batch({}, dels);
  ASSERT_TRUE(dyn.last_batch().fell_back);
  ASSERT_EQ(dyn.fallbacks(), 1u);
  expect_matches_static(dyn);
}

TEST(BatchDynamic, PathSearchPastSearchCapFallsBack) {
  // The chord {0, n - 1} closes a 300k path into a cycle: the two
  // search sides meet only in the middle, 150k vertices out, far past
  // the cap, so the batch falls back.
  constexpr vid n = 300000;
  BccContext ctx(4);
  BatchDynamicOptions opt;
  opt.damage_threshold = 1.0;
  BatchDynamicBcc dyn(ctx, gen::path(n), opt);
  const Edge chord{0, n - 1};
  dyn.apply_batch({&chord, 1}, {});
  ASSERT_TRUE(dyn.last_batch().fell_back);
  ASSERT_EQ(dyn.fallbacks(), 1u);
  expect_matches_static(dyn);
  ASSERT_EQ(dyn.result().num_components, 1u);
}

TEST(BatchDynamic, RejectsMalformedBatches) {
  BccContext ctx(1);
  BatchDynamicBcc dyn(ctx, gen::cycle(4), {});
  const Edge loop{1, 1};
  EXPECT_THROW(dyn.apply_batch({&loop, 1}, {}), std::invalid_argument);
  const Edge oob{0, 9};
  EXPECT_THROW(dyn.apply_batch({&oob, 1}, {}), std::invalid_argument);
  const eid bad = 99;
  EXPECT_THROW(dyn.apply_batch({}, {&bad, 1}), std::invalid_argument);
  const std::vector<eid> dup{0, 0};
  EXPECT_THROW(dyn.apply_batch({}, dup), std::invalid_argument);
  // The standing state survives a rejected batch.
  expect_matches_static(dyn);
}

TEST(BatchDynamic, EmitsBatchSpansAndCounters) {
  Trace trace(4);
  BccContext ctx(4);
  BatchDynamicOptions opt;
  opt.damage_threshold = 1.0;
  opt.trace = &trace;
  BatchDynamicBcc dyn(ctx, gen::grid_torus(4, 4), opt);

  const Trace::Mark mark = trace.mark();
  const Edge chord{0, 5};
  dyn.apply_batch({&chord, 1}, {});
  const TraceReport report = trace.report_since(mark);

  ASSERT_NE(report.find_path("batch_apply"), nullptr);
  ASSERT_NE(report.find_path("batch_apply/damage_probe"), nullptr);
  ASSERT_NE(report.find_path("batch_apply/region_solve"), nullptr);
  EXPECT_GT(report.counter_total("batch_touched_vertices"), 0.0);
  EXPECT_EQ(report.counter_total("batch_fallbacks"), 0.0);

  // A forced fallback charges the counter and skips region_solve.
  const Trace::Mark mark2 = trace.mark();
  BatchDynamicOptions strict = opt;
  strict.damage_threshold = 0.0;
  BatchDynamicBcc dyn2(ctx, gen::grid_torus(4, 4), strict);
  const Edge chord2{1, 6};
  dyn2.apply_batch({&chord2, 1}, {});
  const TraceReport report2 = trace.report_since(mark2);
  EXPECT_EQ(report2.counter_total("batch_fallbacks"), 1.0);
  EXPECT_EQ(report2.find_path("batch_apply/region_solve"), nullptr);
}

TEST(BatchDynamic, RenormThresholdComputedIn64Bit) {
  // The threshold is 2(n + m) + 1024.  Near the top of the 32-bit id
  // space the old vid-typed expression wrapped around to a tiny value,
  // silently forcing a renormalization on every batch; the fix keeps
  // the arithmetic in 64 bits.
  EXPECT_EQ(renormalize_label_threshold(3, 4), 2u * 7u + 1024u);
  EXPECT_GT(renormalize_label_threshold(1'500'000'000ull, 1'000'000'000ull),
            std::uint64_t{UINT32_MAX});
  EXPECT_EQ(renormalize_label_threshold(std::uint64_t{1} << 31,
                                        std::uint64_t{1} << 31),
            (std::uint64_t{1} << 33) + 1024);
}

TEST(BatchDynamic, ForcedRenormalizationKeepsPartition) {
  // renorm_label_limit = 1 triggers the renormalization after every
  // batch: the standing result must keep matching the static
  // solve, and the label space must be contiguous again each time.
  BccContext ctx(2);
  BatchDynamicOptions opt;
  opt.renorm_label_limit = 1;
  BatchDynamicBcc dyn(ctx, gen::random_connected_gnm(120, 260, 9), opt);
  Xoshiro256 rng(9);
  for (int round = 0; round < 8; ++round) {
    std::vector<Edge> ins;
    for (int i = 0; i < 5; ++i) {
      const vid u = static_cast<vid>(rng() % 120);
      ins.push_back({u, static_cast<vid>((u + 1 + rng() % 118) % 120)});
    }
    const eid del = static_cast<eid>(rng() % dyn.graph().m());
    dyn.apply_batch(ins, {&del, 1});
    expect_matches_static(dyn);
    EXPECT_EQ(dyn.label_bound(), dyn.result().num_components);
    EXPECT_EQ(dyn.version(), static_cast<std::uint64_t>(round + 1));
  }
}

TEST(BatchDynamic, LongStreamKeepsBooks) {
  // A longer stream on one engine: stats stay coherent and fallbacks
  // accumulate monotonically.
  BccContext ctx(4);
  BatchDynamicBcc dyn(ctx, gen::random_connected_gnm(200, 500, 7), {});
  Xoshiro256 rng(7);
  std::uint64_t last_fallbacks = 0;
  for (int round = 0; round < 12; ++round) {
    std::vector<Edge> ins;
    for (int i = 0; i < 5; ++i) {
      const vid u = static_cast<vid>(rng() % 200);
      const vid v = static_cast<vid>((u + 1 + rng() % 198) % 200);
      ins.push_back({u, v});
    }
    const eid del = static_cast<eid>(rng() % dyn.graph().m());
    dyn.apply_batch(ins, {&del, 1});
    expect_matches_static(dyn);
    ASSERT_GE(dyn.fallbacks(), last_fallbacks);
    ASSERT_EQ(dyn.fallbacks() > last_fallbacks, dyn.last_batch().fell_back);
    last_fallbacks = dyn.fallbacks();
  }
}

}  // namespace
}  // namespace parbcc
