#include <gtest/gtest.h>

#include <cstdint>

#include "core/bcc.hpp"
#include "engines.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"
#include "util/padded.hpp"
#include "util/thread_pool.hpp"
#include "util/types.hpp"
#include "util/workspace.hpp"

/// Arena semantics (frame discipline, alignment, telemetry) plus the
/// context-level contract the tentpole promises: a second solve on a
/// warm BccContext performs zero arena growth and identical results.

namespace parbcc {
namespace {

TEST(Workspace, DefaultConstructedOwnsNothing) {
  Workspace ws;
  EXPECT_EQ(ws.capacity_bytes(), 0u);
  EXPECT_EQ(ws.live_bytes(), 0u);
  EXPECT_EQ(ws.peak_bytes(), 0u);
  EXPECT_EQ(ws.growth_count(), 0u);
}

TEST(Workspace, AllocIsCacheLineAligned) {
  Workspace ws;
  Workspace::Frame frame(ws);
  const std::span<std::uint8_t> a = ws.alloc<std::uint8_t>(3);
  const std::span<std::uint64_t> b = ws.alloc<std::uint64_t>(5);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.data()) % kCacheLine, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % kCacheLine, 0u);
  // The 3-byte span was rounded to a full line: no overlap.
  EXPECT_GE(reinterpret_cast<std::uintptr_t>(b.data()),
            reinterpret_cast<std::uintptr_t>(a.data()) + kCacheLine);
}

TEST(Workspace, ZeroCountAllocIsEmptyAndFree) {
  Workspace ws;
  const std::span<vid> s = ws.alloc<vid>(0);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(ws.capacity_bytes(), 0u);
}

TEST(Workspace, FrameRewindsLiveBytes) {
  Workspace ws;
  {
    Workspace::Frame outer(ws);
    ws.alloc<vid>(100);
    const std::size_t outer_live = ws.live_bytes();
    {
      Workspace::Frame inner(ws);
      ws.alloc<vid>(1000);
      EXPECT_GT(ws.live_bytes(), outer_live);
    }
    EXPECT_EQ(ws.live_bytes(), outer_live);
  }
  EXPECT_EQ(ws.live_bytes(), 0u);
  EXPECT_GT(ws.peak_bytes(), 0u);  // peak survives the rewind
}

TEST(Workspace, RewindThenReallocReusesCapacityWithoutGrowth) {
  Workspace ws;
  {
    Workspace::Frame frame(ws);
    ws.alloc<std::uint64_t>(1 << 12);
  }
  const std::size_t cap = ws.capacity_bytes();
  const std::uint64_t growth = ws.growth_count();
  const std::uint64_t hits = ws.reuse_hits();
  for (int round = 0; round < 3; ++round) {
    Workspace::Frame frame(ws);
    ws.alloc<std::uint64_t>(1 << 12);
    ws.alloc<std::uint32_t>(1 << 12);
  }
  EXPECT_EQ(ws.capacity_bytes(), cap);
  EXPECT_EQ(ws.growth_count(), growth);
  EXPECT_EQ(ws.reuse_hits(), hits + 6);  // every allocation was a hit
}

TEST(Workspace, GrowthIsGeometric) {
  Workspace ws;
  Workspace::Frame frame(ws);
  // Many small allocations must not translate into many blocks.
  for (int i = 0; i < 1000; ++i) ws.alloc<std::uint64_t>(256);
  EXPECT_LE(ws.growth_count(), 8u);
  EXPECT_GE(ws.capacity_bytes(), ws.live_bytes());
}

TEST(Workspace, PaddedElementsAreDefaultConstructed) {
  Workspace ws;
  // Dirty the arena first so stale bytes would show through if the
  // placement-new path were skipped.
  {
    Workspace::Frame frame(ws);
    const std::span<std::uint8_t> dirt = ws.alloc<std::uint8_t>(4096);
    for (auto& b : dirt) b = 0xAB;
  }
  Workspace::Frame frame(ws);
  const std::span<Padded<std::uint64_t>> p =
      ws.alloc<Padded<std::uint64_t>>(8);
  for (const auto& x : p) EXPECT_EQ(x.value, 0u);
}

TEST(Workspace, ReleaseFreesEverything) {
  Workspace ws;
  {
    Workspace::Frame frame(ws);
    ws.alloc<vid>(1 << 16);
  }
  ws.release();
  EXPECT_EQ(ws.capacity_bytes(), 0u);
  EXPECT_EQ(ws.live_bytes(), 0u);
}

// --- Context-level acceptance: warm solves grow nothing. --------------

TEST(BccContext, SecondSolveOnWarmContextPerformsZeroArenaGrowth) {
  const EdgeList g = gen::random_connected_gnm(20000, 80000, 42);
  BccContext ctx(4);
  paper::PaperOptions opt;
  opt.algorithm = paper::Algorithm::kTvSmp;  // heaviest arena user

  const BccResult cold = paper::solve(ctx, g, opt);
  EXPECT_GT(cold.peak_workspace_bytes, 0u);
  EXPECT_GT(ctx.workspace().capacity_bytes(), 0u);

  const std::uint64_t growth_after_cold = ctx.workspace().growth_count();
  const std::size_t capacity_after_cold = ctx.workspace().capacity_bytes();

  const BccResult warm = paper::solve(ctx, g, opt);
  // Zero growth: the warm solve was served entirely from capacity.
  EXPECT_EQ(ctx.workspace().growth_count(), growth_after_cold);
  EXPECT_EQ(ctx.workspace().capacity_bytes(), capacity_after_cold);
  EXPECT_GT(warm.arena_reuse_hits, 0u);
  EXPECT_EQ(warm.peak_workspace_bytes, cold.peak_workspace_bytes);

  // And the answers agree exactly (same context, deterministic input).
  EXPECT_EQ(cold.num_components, warm.num_components);
  EXPECT_TRUE(
      testutil::same_partition(cold.edge_component, warm.edge_component));
}

TEST(BccContext, ConversionChargedOnceForRepeatedSolvesOfSameGraph) {
  const EdgeList g = gen::random_connected_gnm(10000, 40000, 7);
  BccContext ctx(4);
  paper::PaperOptions opt;
  opt.algorithm = paper::Algorithm::kTvOpt;  // adjacency-hungry driver

  const BccResult first = paper::solve(ctx, g, opt);
  const BccResult second = paper::solve(ctx, g, opt);
  EXPECT_GT(first.times.conversion, 0.0);
  EXPECT_EQ(second.times.conversion, 0.0);  // cache hit
  EXPECT_TRUE(
      testutil::same_partition(first.edge_component, second.edge_component));
}

TEST(BccContext, SameAddressSameSizeDifferentGraphMissesCache) {
  // Regression: the conversion cache used to key on (&g, n, m) only.
  // Overwriting a solved graph with a different graph of identical
  // size — the same aliasing a freed-then-reallocated EdgeList
  // produces — matched the stale key and served the old adjacency,
  // silently solving the wrong graph.  The content fingerprint in the
  // key forces a reconversion.
  EdgeList g = gen::random_gnm(2000, 6000, 1);
  BccContext ctx(2);
  BccOptions opt;
  opt.compute_cut_info = true;

  biconnected_components(ctx, g, opt);
  g = gen::random_gnm(2000, 6000, 2);  // same address, n, and m
  const BccResult got = biconnected_components(ctx, g, opt);
  EXPECT_GT(got.times.conversion, 0.0);  // cache miss, not a stale hit

  BccContext fresh(2);
  const BccResult want = biconnected_components(fresh, g, opt);
  EXPECT_EQ(got.num_components, want.num_components);
  EXPECT_TRUE(
      testutil::same_partition(got.edge_component, want.edge_component));
  EXPECT_EQ(got.is_articulation, want.is_articulation);
}

TEST(BccContext, InvalidateForcesReconversion) {
  const EdgeList g = gen::random_connected_gnm(5000, 20000, 3);
  BccContext ctx(2);
  paper::PaperOptions opt;
  opt.algorithm = paper::Algorithm::kTvFilter;

  const BccResult first = paper::solve(ctx, g, opt);
  ctx.invalidate();
  const BccResult again = paper::solve(ctx, g, opt);
  EXPECT_GT(again.times.conversion, 0.0);  // rebuilt after invalidate
  EXPECT_TRUE(
      testutil::same_partition(first.edge_component, again.edge_component));
}

TEST(BccContext, LoopyGraphWarmSolveHitsBothCaches) {
  // Regression: inputs with self-loops used to bypass the context
  // caches entirely (the dispatcher stripped into a call-local copy and
  // solved cache-less), so every warm solve re-stripped, re-converted,
  // and re-grew the arena.  The stripped copy now lives in the context.
  EdgeList g = gen::random_connected_gnm(20000, 80000, 17);
  for (vid v = 0; v < g.n; v += 97) g.add_edge(v, v);  // sprinkle loops
  BccContext ctx(4);
  paper::PaperOptions opt;
  opt.algorithm = paper::Algorithm::kTvOpt;

  const BccResult cold = paper::solve(ctx, g, opt);
  EXPECT_GT(cold.times.conversion, 0.0);
  const std::uint64_t growth_after_cold = ctx.workspace().growth_count();
  const std::size_t capacity_after_cold = ctx.workspace().capacity_bytes();

  const BccResult warm = paper::solve(ctx, g, opt);
  EXPECT_EQ(warm.times.conversion, 0.0);  // stripped adjacency cache hit
  EXPECT_EQ(ctx.workspace().growth_count(), growth_after_cold);
  EXPECT_EQ(ctx.workspace().capacity_bytes(), capacity_after_cold);
  EXPECT_GT(warm.arena_reuse_hits, 0u);
  // Strictly below: the cold solve's peak included the conversion
  // scratch the warm solve never touches (cached stripped adjacency).
  EXPECT_LE(warm.peak_workspace_bytes, cold.peak_workspace_bytes);
  EXPECT_EQ(cold.num_components, warm.num_components);
  EXPECT_TRUE(
      testutil::same_partition(cold.edge_component, warm.edge_component));
}

TEST(BccContext, AlternatingLoopyGraphsReKeyTheStripCache) {
  // Two distinct loopy graphs through one context: each switch must
  // rebuild the stripped copy (and drop the conversion cache keyed on
  // its storage) rather than serve the other graph's stripped edges.
  EdgeList a = gen::random_connected_gnm(3000, 12000, 23);
  a.add_edge(1, 1);
  EdgeList b = gen::random_connected_gnm(3000, 12000, 24);
  b.add_edge(2, 2);
  BccContext ctx(2);
  paper::PaperOptions opt;
  opt.algorithm = paper::Algorithm::kTvFilter;
  Executor fresh(2);
  for (int round = 0; round < 2; ++round) {
    const BccResult ra = paper::solve(ctx, a, opt);
    const BccResult rb = paper::solve(ctx, b, opt);
    const BccResult fa = testutil::solve(fresh, a, opt.algorithm, opt);
    const BccResult fb = testutil::solve(fresh, b, opt.algorithm, opt);
    ASSERT_EQ(ra.num_components, fa.num_components);
    ASSERT_EQ(rb.num_components, fb.num_components);
    ASSERT_TRUE(
        testutil::same_partition(ra.edge_component, fa.edge_component));
    ASSERT_TRUE(
        testutil::same_partition(rb.edge_component, fb.edge_component));
  }
}

TEST(BccContext, BorrowedExecutorIsUsed) {
  Executor ex(3);
  BccContext ctx(ex);
  EXPECT_EQ(&ctx.executor(), &ex);
  EXPECT_EQ(ctx.executor().threads(), 3);
  const EdgeList g = gen::random_connected_gnm(2000, 6000, 5);
  const BccResult r = biconnected_components(ctx, g, {});
  EXPECT_GT(r.num_components, 0u);
}

TEST(BccContext, DifferentGraphsOnOneContextStayCorrect) {
  BccContext ctx(4);
  BccOptions opt;
  opt.algorithm = BccAlgorithm::kAuto;
  // Alternate between two graphs; each switch re-keys the conversion
  // cache but must never change answers.
  const EdgeList a = gen::random_connected_gnm(8000, 32000, 21);
  const EdgeList b = gen::random_cactus(1500, 10, 22);
  for (int round = 0; round < 2; ++round) {
    const BccResult ra = biconnected_components(ctx, a, opt);
    const BccResult rb = biconnected_components(ctx, b, opt);
    Executor fresh_ex(4);
    const BccResult fa = testutil::solve(fresh_ex, a, opt);
    const BccResult fb = testutil::solve(fresh_ex, b, opt);
    ASSERT_EQ(ra.num_components, fa.num_components);
    ASSERT_EQ(rb.num_components, fb.num_components);
    ASSERT_TRUE(
        testutil::same_partition(ra.edge_component, fa.edge_component));
    ASSERT_TRUE(
        testutil::same_partition(rb.edge_component, fb.edge_component));
  }
}

}  // namespace
}  // namespace parbcc
