#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>

#include "core/bcc.hpp"
#include "core/validate.hpp"
#include "engines.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"
#include "util/thread_pool.hpp"

/// Larger-scale property sweeps: the certificate validator replaces the
/// brute-force oracles, so these run at sizes where the O(n*m)
/// references would take minutes.

namespace parbcc {
namespace {

void check(Executor& ex, const EdgeList& g, Engine algorithm) {
  const BccResult r = testutil::solve(ex, g, algorithm);
  const ValidationReport report = validate_bcc(ex, g, r);
  ASSERT_TRUE(report.ok) << to_string(algorithm) << ": " << report.message;
}

class StressParam
    : public ::testing::TestWithParam<std::tuple<Engine, int>> {};

TEST_P(StressParam, MediumRandomGraphsValidate) {
  const auto [algorithm, seed] = GetParam();
  Executor ex(4);
  const vid n = 20000;
  const eid m = static_cast<eid>((1 + seed % 4)) * 2 * n;
  check(ex, gen::random_connected_gnm(n, m, seed), algorithm);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StressParam,
    ::testing::Combine(::testing::Values(Engine(paper::Algorithm::kTvSmp),
                                         Engine(paper::Algorithm::kTvOpt),
                                         Engine(paper::Algorithm::kTvFilter),
                                         Engine(BccAlgorithm::kFastBcc)),
                       ::testing::Values(1, 2, 3, 4)));

TEST(Stress, RmatSkewDegreesAllAlgorithms) {
  Executor ex(4);
  const EdgeList g = gen::rmat(14, 8, 3);  // 16k vertices, heavy skew
  for (const Engine algorithm :
       {Engine(paper::Algorithm::kTvSmp), Engine(paper::Algorithm::kTvOpt),
        Engine(paper::Algorithm::kTvFilter), Engine(BccAlgorithm::kFastBcc)}) {
    check(ex, g, algorithm);
  }
}

TEST(Stress, LargeCactusTvFilter) {
  Executor ex(4);
  const EdgeList g = gen::random_cactus(5000, 12, 7);
  check(ex, g, paper::Algorithm::kTvFilter);
  check(ex, g, paper::Algorithm::kTvOpt);
  check(ex, g, BccAlgorithm::kFastBcc);  // every cycle is its own cluster
}

TEST(Stress, WideShallowAndNarrowDeep) {
  Executor ex(4);
  // Wide: star-of-cliques; deep: long cycle.
  EdgeList star_cliques(1 + 50 * 4, {});
  for (vid b = 0; b < 50; ++b) {
    const vid base = 1 + 4 * b;
    for (vid i = 0; i < 4; ++i) {
      for (vid j = i + 1; j < 4; ++j) {
        star_cliques.add_edge(base + i, base + j);
      }
      star_cliques.add_edge(0, base + i);
    }
  }
  check(ex, star_cliques, paper::Algorithm::kTvOpt);
  check(ex, star_cliques, paper::Algorithm::kTvFilter);
  check(ex, gen::cycle(100000), paper::Algorithm::kTvOpt);
}

TEST(Stress, CrossAlgorithmPartitionsIdentical) {
  Executor ex(4);
  const EdgeList g = gen::random_connected_gnm(30000, 150000, 9);
  SolveOptions opt;
  opt.compute_cut_info = false;
  const BccResult a = testutil::solve(ex, g, paper::Algorithm::kTvSmp, opt);
  const BccResult b = testutil::solve(ex, g, paper::Algorithm::kTvOpt, opt);
  const BccResult c =
      testutil::solve(ex, g, paper::Algorithm::kTvFilter, opt);
  const BccResult d = testutil::solve(ex, g, BccAlgorithm::kFastBcc, opt);
  ASSERT_EQ(a.num_components, b.num_components);
  ASSERT_EQ(a.num_components, c.num_components);
  ASSERT_EQ(a.num_components, d.num_components);
  EXPECT_TRUE(testutil::same_partition(a.edge_component, b.edge_component));
  EXPECT_TRUE(testutil::same_partition(a.edge_component, c.edge_component));
  EXPECT_TRUE(testutil::same_partition(a.edge_component, d.edge_component));
}

TEST(Stress, FullWidthAllAlgorithms) {
  // Full SPMD width (oversubscribed on small hosts, which only widens
  // the interleaving space): the race surface the sanitize-smoke suite
  // is pointed at — work-stealing traversal, CSR bucket scatter, SV
  // hooks under 12-way contention.
  Executor ex(12);
  const EdgeList g = gen::random_connected_gnm(20000, 120000, 13);
  for (const Engine algorithm :
       {Engine(paper::Algorithm::kTvSmp), Engine(paper::Algorithm::kTvOpt),
        Engine(paper::Algorithm::kTvFilter), Engine(BccAlgorithm::kFastBcc)}) {
    check(ex, g, algorithm);
  }
}

class ContextReuseParam : public ::testing::TestWithParam<int> {};

TEST_P(ContextReuseParam, BackToBackSolvesMatchFreshContexts) {
  // One BccContext carried across solves of different graphs with
  // different algorithms: the arena is rewound and regrown across
  // wildly different problem shapes, and every answer must match a
  // fresh single-use context solving the same problem.
  const int p = GetParam();
  BccContext ctx(p);
  SolveOptions opt;
  opt.compute_cut_info = true;

  const EdgeList graphs[] = {
      gen::random_connected_gnm(15000, 60000, 31),
      gen::rmat(13, 8, 32),
      gen::random_cactus(2000, 10, 33),
      gen::cycle(50000),
      gen::random_connected_gnm(10000, 80000, 34),
  };
  const Engine algorithms[] = {
      paper::Algorithm::kTvSmp, paper::Algorithm::kTvOpt,
      paper::Algorithm::kTvFilter, BccAlgorithm::kSequential,
      BccAlgorithm::kFastBcc};

  for (std::size_t i = 0; i < std::size(graphs); ++i) {
    const Engine algorithm = algorithms[i % std::size(algorithms)];
    const BccResult reused = testutil::solve(ctx, graphs[i], algorithm, opt);

    BccContext fresh(p);
    const BccResult baseline =
        testutil::solve(fresh, graphs[i], algorithm, opt);

    ASSERT_EQ(reused.num_components, baseline.num_components)
        << "graph " << i << " with " << to_string(algorithm);
    ASSERT_TRUE(testutil::same_partition(reused.edge_component,
                                         baseline.edge_component));
    ASSERT_EQ(reused.is_articulation, baseline.is_articulation);
    ASSERT_EQ(reused.bridges, baseline.bridges);
  }

  // Second lap over the same graphs: the context is now warm at every
  // shape it will see, so the arena must not grow again.
  const std::uint64_t growth = ctx.workspace().growth_count();
  for (std::size_t i = 0; i < std::size(graphs); ++i) {
    const BccResult again = testutil::solve(
        ctx, graphs[i], algorithms[i % std::size(algorithms)], opt);
    ASSERT_GT(again.num_components, 0u);
  }
  EXPECT_EQ(ctx.workspace().growth_count(), growth);
}

INSTANTIATE_TEST_SUITE_P(Widths, ContextReuseParam,
                         ::testing::Values(1, 4, 12));

TEST(Stress, RepeatedRunsAreDeterministicAtOneThread) {
  Executor ex(1);
  const EdgeList g = gen::random_connected_gnm(5000, 20000, 11);
  const BccResult a = testutil::solve(ex, g, paper::Algorithm::kTvOpt);
  const BccResult b = testutil::solve(ex, g, paper::Algorithm::kTvOpt);
  EXPECT_EQ(a.edge_component, b.edge_component);  // exact, not just partition
  EXPECT_EQ(a.bridges, b.bridges);
}

}  // namespace
}  // namespace parbcc
