#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/articulation.hpp"
#include "core/bcc.hpp"
#include "core/hopcroft_tarjan.hpp"
#include "engines.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"
#include "util/thread_pool.hpp"

namespace parbcc {
namespace {

/// Named graph families for the big equivalence sweep.
EdgeList make_graph(const std::string& family, int seed) {
  const auto s = static_cast<std::uint64_t>(seed);
  if (family == "sparse_random") {
    return gen::random_connected_gnm(800, 1600, s);
  }
  if (family == "dense_random") {
    return gen::random_connected_gnm(300, 4000, s);
  }
  if (family == "tree_random") {
    return gen::random_connected_gnm(1000, 999, s);
  }
  if (family == "cactus") {
    return gen::random_cactus(60, 9, s);
  }
  if (family == "clique_chain") {
    return gen::clique_chain(10 + static_cast<vid>(seed), 5);
  }
  if (family == "cycle_chain") {
    return gen::cycle_chain(20, 3 + static_cast<vid>(seed % 4));
  }
  if (family == "torus") {
    return gen::grid_torus(8, 9 + static_cast<vid>(seed));
  }
  if (family == "path") {
    return gen::path(500);
  }
  if (family == "star") {
    return gen::star(500);
  }
  if (family == "complete") {
    return gen::complete(40);
  }
  ADD_FAILURE() << "unknown family " << family;
  return {};
}

class BccEquivalence
    : public ::testing::TestWithParam<
          std::tuple<Engine, std::string, int, int>> {};

TEST_P(BccEquivalence, MatchesSequentialTarjanAsPartition) {
  const auto [algorithm, family, seed, threads] = GetParam();
  const EdgeList g = make_graph(family, seed);

  Executor ex(threads);
  Workspace ws;
  SolveOptions opt;
  opt.compute_cut_info = true;
  const BccResult par = testutil::solve(ex, g, algorithm, opt);

  const Csr csr = Csr::build(ex, ws, g);
  BccResult seq = hopcroft_tarjan_bcc(g, csr);
  annotate_cut_info(ex, ws, g, seq);

  ASSERT_EQ(par.num_components, seq.num_components);
  EXPECT_TRUE(
      testutil::same_partition(par.edge_component, seq.edge_component));
  EXPECT_EQ(par.is_articulation, seq.is_articulation);
  EXPECT_EQ(par.bridges, seq.bridges);
}

INSTANTIATE_TEST_SUITE_P(
    Families, BccEquivalence,
    ::testing::Combine(
        ::testing::Values(Engine(paper::Algorithm::kTvSmp),
                          Engine(paper::Algorithm::kTvOpt),
                          Engine(paper::Algorithm::kTvFilter),
                          Engine(BccAlgorithm::kFastBcc)),
        ::testing::Values("sparse_random", "dense_random", "tree_random",
                          "cactus", "clique_chain", "cycle_chain", "torus",
                          "path", "star", "complete"),
        ::testing::Values(1, 2),
        ::testing::Values(1, 4, 12)),
    [](const auto& info) {
      std::string name = to_string(std::get<0>(info.param));
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_" + std::get<1>(info.param) + "_s" +
             std::to_string(std::get<2>(info.param)) + "_t" +
             std::to_string(std::get<3>(info.param));
    });

class BccSeedSweep
    : public ::testing::TestWithParam<std::tuple<Engine, int>> {};

TEST_P(BccSeedSweep, RandomGraphsManySeeds) {
  const auto [algorithm, seed] = GetParam();
  // Mix of densities keyed off the seed.
  const vid n = 200 + 37 * static_cast<vid>(seed);
  const eid m = n + static_cast<eid>((seed % 5) * n);
  const EdgeList g =
      gen::random_connected_gnm(n, std::max<eid>(m, n - 1), seed);

  Executor ex(3);
  const BccResult par = testutil::solve(ex, g, algorithm);
  const testutil::RefBcc ref = testutil::reference_bcc(g);
  ASSERT_EQ(par.num_components, ref.count);
  EXPECT_TRUE(testutil::same_partition(par.edge_component, ref.edge_comp));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BccSeedSweep,
    ::testing::Combine(::testing::Values(Engine(paper::Algorithm::kTvSmp),
                                         Engine(paper::Algorithm::kTvOpt),
                                         Engine(paper::Algorithm::kTvFilter),
                                         Engine(BccAlgorithm::kFastBcc),
                                         Engine(BccAlgorithm::kAuto)),
                       ::testing::Range(0, 12)));

TEST(BccParallel, RootChoiceDoesNotChangeThePartition) {
  const EdgeList g = gen::random_connected_gnm(400, 1200, 5);
  Executor ex(4);
  SolveOptions opt;
  opt.root = 0;
  const BccResult a =
      testutil::solve(ex, g, paper::Algorithm::kTvFilter, opt);
  opt.root = 237;
  const BccResult b =
      testutil::solve(ex, g, paper::Algorithm::kTvFilter, opt);
  EXPECT_EQ(a.num_components, b.num_components);
  EXPECT_TRUE(testutil::same_partition(a.edge_component, b.edge_component));
}

TEST(BccParallel, TvSmpRankerVariantsAgree) {
  const EdgeList g = gen::random_connected_gnm(300, 900, 8);
  BccContext ctx(4);
  paper::PaperOptions opt;
  opt.algorithm = paper::Algorithm::kTvSmp;
  BccResult base;
  bool first = true;
  for (const ListRanker ranker :
       {ListRanker::kSequential, ListRanker::kWyllie,
        ListRanker::kHelmanJaja}) {
    for (const ArcSort sort : {ArcSort::kSampleSort, ArcSort::kCountingSort}) {
      opt.ranker = ranker;
      opt.arc_sort = sort;
      const BccResult r = paper::solve(ctx, g, opt);
      if (first) {
        base = r;
        first = false;
      } else {
        ASSERT_EQ(r.num_components, base.num_components);
        EXPECT_TRUE(testutil::same_partition(r.edge_component,
                                             base.edge_component));
      }
    }
  }
}

TEST(BccParallel, StepTimesArePopulated) {
  const EdgeList g = gen::random_connected_gnm(2000, 8000, 2);
  Executor ex(2);
  for (const Engine algorithm :
       {Engine(paper::Algorithm::kTvSmp), Engine(paper::Algorithm::kTvOpt),
        Engine(paper::Algorithm::kTvFilter), Engine(BccAlgorithm::kFastBcc)}) {
    const BccResult r = testutil::solve(ex, g, algorithm);
    EXPECT_GT(r.times.total, 0.0) << to_string(algorithm);
    EXPECT_GT(r.times.accounted(), 0.0) << to_string(algorithm);
    EXPECT_LE(r.times.accounted(), r.times.total * 1.5)
        << to_string(algorithm);
    if (algorithm == Engine(paper::Algorithm::kTvFilter)) {
      EXPECT_GT(r.times.filtering, 0.0);
    } else {
      EXPECT_EQ(r.times.filtering, 0.0);
    }
  }
}

TEST(BccParallel, StepTimesAccountingBalancesAgainstTotal) {
  // The steps are derived from the same trace rollup for every
  // algorithm, so accounted + unattributed must reproduce the measured
  // wall clock — the drift the old per-driver stopwatches allowed.
  const EdgeList g = gen::random_connected_gnm(3000, 13000, 7);
  Executor ex(4);
  for (const Engine algorithm :
       {Engine(BccAlgorithm::kSequential), Engine(paper::Algorithm::kTvSmp),
        Engine(paper::Algorithm::kTvOpt), Engine(paper::Algorithm::kTvFilter),
        Engine(BccAlgorithm::kFastBcc), Engine(BccAlgorithm::kAuto)}) {
    const BccResult r = testutil::solve(ex, g, algorithm);
    EXPECT_GT(r.times.total, 0.0) << to_string(algorithm);
    EXPECT_GE(r.times.unattributed, 0.0) << to_string(algorithm);
    EXPECT_NEAR(r.times.accounted() + r.times.unattributed, r.times.total,
                std::max(0.01 * r.times.total, 1e-6))
        << to_string(algorithm);
    // The rollup itself rides along on the result.
    EXPECT_FALSE(r.trace.phases.empty()) << to_string(algorithm);
  }
}

TEST(BccParallel, AutoRunsSequentialUpToTheCutoffAndFastBccAbove) {
  Executor ex(4);
  BccOptions opt;
  opt.algorithm = BccAlgorithm::kAuto;
  BccOptions seq;
  seq.algorithm = BccAlgorithm::kSequential;

  const auto cutoff = static_cast<eid>(kAutoSequentialMaxEdges);
  const EdgeList at_cutoff = gen::random_connected_gnm(cutoff / 4, cutoff, 1);
  const EdgeList above =
      gen::random_connected_gnm(cutoff / 4, cutoff + 1, 2);
  const BccResult low = testutil::solve(ex, at_cutoff, opt);
  const BccResult high = testutil::solve(ex, above, opt);
  EXPECT_NE(low.trace.find_path("sequential"), nullptr);
  EXPECT_EQ(low.trace.find_path("FastBCC"), nullptr);
  EXPECT_NE(high.trace.find_path("FastBCC"), nullptr);
  EXPECT_EQ(high.trace.find_path("sequential"), nullptr);
  // No probe: kAuto opens no span of its own.
  EXPECT_EQ(low.trace.find_path("dispatch"), nullptr);
  EXPECT_EQ(high.trace.find_path("dispatch"), nullptr);
  // A connected input pays for no connectivity pass at all.
  EXPECT_EQ(high.trace.find_path("FastBCC/component_check"), nullptr);
  EXPECT_EQ(high.trace.find_path("FastBCC/spanning_tree/component_roots"),
            nullptr);
  const BccResult base = testutil::solve(ex, above, seq);
  ASSERT_EQ(high.num_components, base.num_components);
  EXPECT_TRUE(
      testutil::same_partition(high.edge_component, base.edge_component));
}

TEST(BccParallel, LoopsAndParallelEdgesMatchSequentialUnderAutoAndFastBcc) {
  // A ring of 300 vertices padded with 1500 copies of one edge and 300
  // self-loops: the copies fuse into the ring's single block and every
  // loop is its own component.
  EdgeList g;
  g.n = 300;
  for (vid v = 0; v < g.n; ++v) g.edges.push_back({v, (v + 1) % g.n});
  for (int i = 0; i < 1500; ++i) g.edges.push_back({0, 1});
  for (vid v = 0; v < g.n; ++v) g.edges.push_back({v, v});

  Executor ex(4);
  BccOptions seq;
  seq.algorithm = BccAlgorithm::kSequential;
  const BccResult base = testutil::solve(ex, g, seq);
  ASSERT_EQ(base.num_components, 301u);
  for (const BccAlgorithm algorithm :
       {BccAlgorithm::kAuto, BccAlgorithm::kFastBcc}) {
    BccOptions opt;
    opt.algorithm = algorithm;
    const BccResult r = testutil::solve(ex, g, opt);
    ASSERT_EQ(r.num_components, base.num_components) << to_string(algorithm);
    EXPECT_TRUE(
        testutil::same_partition(r.edge_component, base.edge_component))
        << to_string(algorithm);
  }
}

}  // namespace
}  // namespace parbcc
