#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "core/batch_dynamic.hpp"
#include "core/bcc.hpp"
#include "core/bcc_context.hpp"
#include "core/validate.hpp"
#include "engines.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

/// Construction-based fuzzing: graphs are assembled from operations
/// whose effect on the block structure is known exactly (each operation
/// glues one fresh block onto an anchor vertex), so the expected number
/// of blocks, bridges, cut vertices and components is tracked on the
/// side with no reference algorithm in the loop at all.

namespace parbcc {
namespace {

struct Builder {
  EdgeList g;
  std::vector<vid> blocks_of;  // per vertex
  vid blocks = 0;
  vid bridges = 0;
  vid components = 0;
  Xoshiro256 rng;

  explicit Builder(std::uint64_t seed) : rng(seed) { g.n = 0; }

  vid fresh_vertex() {
    blocks_of.push_back(0);
    return g.n++;
  }

  /// Anchor for a new block: either an existing vertex (growing its
  /// component) or a fresh one (starting a new component).
  vid pick_anchor() {
    if (g.n == 0 || rng.below(5) == 0) {
      ++components;
      return fresh_vertex();
    }
    return static_cast<vid>(rng.below(g.n));
  }

  void add_bridge() {
    const vid a = pick_anchor();
    const vid b = fresh_vertex();
    g.add_edge(a, b);
    ++blocks;
    ++bridges;
    ++blocks_of[a];
    ++blocks_of[b];
  }

  void add_cycle(vid len) {
    const vid a = pick_anchor();
    vid prev = a;
    for (vid i = 1; i < len; ++i) {
      const vid v = fresh_vertex();
      g.add_edge(prev, v);
      ++blocks_of[v];
      prev = v;
    }
    g.add_edge(prev, a);
    ++blocks;
    ++blocks_of[a];
    // Interior vertices got counted once per incident edge pair; fix:
    // they belong to exactly this one block.
    for (vid v = g.n - (len - 1); v < g.n; ++v) blocks_of[v] = 1;
  }

  void add_clique(vid size) {
    const vid a = pick_anchor();
    std::vector<vid> members{a};
    for (vid i = 1; i < size; ++i) members.push_back(fresh_vertex());
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        g.add_edge(members[i], members[j]);
      }
    }
    ++blocks;
    ++blocks_of[a];
    for (std::size_t i = 1; i < members.size(); ++i) {
      blocks_of[members[i]] = 1;
    }
  }

  void add_isolated() {
    fresh_vertex();
    ++components;
  }

  vid expected_cuts() const {
    vid count = 0;
    for (const vid b : blocks_of) count += b >= 2 ? 1 : 0;
    return count;
  }
};

/// Connected components (isolated vertices included) read off a
/// labeling: the block-cut forest has blocks + cuts nodes and one edge
/// per (cut vertex, block at it) pair, and a non-cut vertex sits in
/// exactly one block, so components = n + blocks - sum over vertices of
/// the distinct block labels at each.
vid components_from_blocks(const EdgeList& g, const BccResult& r) {
  std::vector<std::vector<vid>> labels_at(g.n);
  for (eid e = 0; e < g.m(); ++e) {
    labels_at[g.edges[e].u].push_back(r.edge_component[e]);
    labels_at[g.edges[e].v].push_back(r.edge_component[e]);
  }
  vid count = g.n + r.num_components;
  for (auto& labels : labels_at) {
    std::sort(labels.begin(), labels.end());
    count -= static_cast<vid>(
        std::unique(labels.begin(), labels.end()) - labels.begin());
  }
  return count;
}

class FuzzParam : public ::testing::TestWithParam<int> {};

TEST_P(FuzzParam, TrackedStructureMatchesEveryAlgorithm) {
  const int seed = GetParam();
  Builder b(static_cast<std::uint64_t>(seed) * 77 + 5);
  const int ops = 60;
  for (int k = 0; k < ops; ++k) {
    switch (b.rng.below(4)) {
      case 0:
        b.add_bridge();
        break;
      case 1:
        b.add_cycle(static_cast<vid>(3 + b.rng.below(6)));
        break;
      case 2:
        b.add_clique(static_cast<vid>(3 + b.rng.below(4)));
        break;
      default:
        b.add_isolated();
        break;
    }
  }

  Executor ex(3);
  for (const Engine algorithm :
       {Engine(BccAlgorithm::kSequential), Engine(paper::Algorithm::kTvSmp),
        Engine(paper::Algorithm::kTvOpt), Engine(paper::Algorithm::kTvFilter),
        Engine(BccAlgorithm::kFastBcc)}) {
    const BccResult r = testutil::solve(ex, b.g, algorithm);
    ASSERT_EQ(r.num_components, b.blocks) << to_string(algorithm);
    ASSERT_EQ(r.bridges.size(), b.bridges) << to_string(algorithm);
    vid cuts = 0;
    for (const auto a : r.is_articulation) cuts += a;
    ASSERT_EQ(cuts, b.expected_cuts()) << to_string(algorithm);
    ASSERT_TRUE(validate_bcc(ex, b.g, r).ok) << to_string(algorithm);
  }

  // The batch-dynamic engine, grown from the bare vertex set by a few
  // insertion batches of the shuffled edges, must land on the same
  // final answers.  No damage fallback: every batch is spliced, so the
  // engine's own merge path is what gets checked, not another solve.
  auto edges = b.g.edges;
  std::shuffle(edges.begin(), edges.end(), b.rng);
  BccContext ctx(ex);
  BatchDynamicOptions dyn_opt;
  dyn_opt.damage_threshold = 1.0;
  BatchDynamicBcc dyn(ctx, EdgeList(b.g.n, {}), dyn_opt);
  const std::span<const Edge> all(edges);
  const std::size_t step = all.size() / 4 + 1;
  for (std::size_t at = 0; at < all.size(); at += step) {
    dyn.apply_batch(all.subspan(at, std::min(step, all.size() - at)), {});
  }
  ASSERT_EQ(dyn.fallbacks(), 0u);
  const BccResult& r = dyn.result();
  EXPECT_EQ(r.num_components, b.blocks);
  EXPECT_EQ(r.bridges.size(), b.bridges);
  vid cuts = 0;
  for (const auto a : r.is_articulation) cuts += a;
  EXPECT_EQ(cuts, b.expected_cuts());
  EXPECT_EQ(components_from_blocks(dyn.graph(), r), b.components);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FuzzParam, ::testing::Range(0, 25));

/// Generator-driven leg of the fuzz sweep: no tracked structure, so
/// correctness is cross-algorithm agreement plus the independent
/// validator.  Power-law instances push the hub-splitting paths the
/// builder graphs (bounded block sizes) never reach.
class PowerLawFuzzParam : public ::testing::TestWithParam<int> {};

TEST_P(PowerLawFuzzParam, AlgorithmsAgreeAndValidateOnPowerLaw) {
  const int seed = GetParam();
  const vid n = static_cast<vid>(400 + 130 * seed);
  const eid m = static_cast<eid>(n) * static_cast<eid>(3 + seed % 4);
  const double alpha = 2.05 + 0.1 * (seed % 5);
  const EdgeList g =
      gen::random_power_law(n, m, alpha, static_cast<std::uint64_t>(seed));

  Executor ex(3);
  const BccResult ref = testutil::solve(ex, g, BccAlgorithm::kSequential);
  for (const Engine algorithm :
       {Engine(paper::Algorithm::kTvSmp), Engine(paper::Algorithm::kTvOpt),
        Engine(paper::Algorithm::kTvFilter), Engine(BccAlgorithm::kFastBcc)}) {
    const BccResult r = testutil::solve(ex, g, algorithm);
    ASSERT_EQ(r.num_components, ref.num_components) << to_string(algorithm);
    ASSERT_EQ(r.bridges, ref.bridges) << to_string(algorithm);
    ASSERT_EQ(r.is_articulation, ref.is_articulation) << to_string(algorithm);
    ASSERT_TRUE(validate_bcc(ex, g, r).ok) << to_string(algorithm);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PowerLawFuzzParam, ::testing::Range(0, 8));

}  // namespace
}  // namespace parbcc
