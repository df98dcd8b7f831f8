#include <gtest/gtest.h>

#include "core/bcc.hpp"
#include "engines.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"
#include "util/thread_pool.hpp"

namespace parbcc {
namespace {

const Engine kAll[] = {BccAlgorithm::kSequential, paper::Algorithm::kTvSmp,
                       paper::Algorithm::kTvOpt, paper::Algorithm::kTvFilter,
                       BccAlgorithm::kFastBcc, BccAlgorithm::kAuto};

BccResult solve(const EdgeList& g, Engine engine, int threads = 2) {
  Executor ex(threads);
  return testutil::solve(ex, g, engine);
}

TEST(EdgeCases, EmptyGraph) {
  const EdgeList g(0, {});
  for (const auto algorithm : kAll) {
    const BccResult r = solve(g, algorithm);
    EXPECT_EQ(r.num_components, 0u);
    EXPECT_TRUE(r.edge_component.empty());
    EXPECT_TRUE(r.bridges.empty());
  }
}

TEST(EdgeCases, SingleVertexNoEdges) {
  const EdgeList g(1, {});
  for (const auto algorithm : kAll) {
    const BccResult r = solve(g, algorithm);
    EXPECT_EQ(r.num_components, 0u);
    EXPECT_EQ(r.is_articulation, std::vector<std::uint8_t>{0});
  }
}

TEST(EdgeCases, ManyIsolatedVertices) {
  const EdgeList g(50, {});
  for (const auto algorithm : kAll) {
    const BccResult r = solve(g, algorithm);
    EXPECT_EQ(r.num_components, 0u);
  }
}

TEST(EdgeCases, SingleEdge) {
  const EdgeList g(2, {{0, 1}});
  for (const auto algorithm : kAll) {
    const BccResult r = solve(g, algorithm);
    EXPECT_EQ(r.num_components, 1u);
    EXPECT_EQ(r.bridges.size(), 1u);
    EXPECT_EQ(r.is_articulation, (std::vector<std::uint8_t>{0, 0}));
  }
}

TEST(EdgeCases, TwoVerticesParallelEdges) {
  const EdgeList g(2, {{0, 1}, {1, 0}, {0, 1}});
  for (const auto algorithm : kAll) {
    const BccResult r = solve(g, algorithm);
    EXPECT_EQ(r.num_components, 1u) << to_string(algorithm);
    EXPECT_TRUE(r.bridges.empty()) << to_string(algorithm);
  }
}

TEST(EdgeCases, SelfLoopsGetOwnComponents) {
  // Triangle with two self-loops sprinkled in.
  const EdgeList g(3, {{0, 1}, {1, 1}, {1, 2}, {2, 0}, {0, 0}});
  for (const auto algorithm : kAll) {
    const BccResult r = solve(g, algorithm);
    EXPECT_EQ(r.num_components, 3u) << to_string(algorithm);
    // Triangle edges share one label; each loop is alone.
    EXPECT_EQ(r.edge_component[0], r.edge_component[2]);
    EXPECT_EQ(r.edge_component[0], r.edge_component[3]);
    EXPECT_NE(r.edge_component[1], r.edge_component[0]);
    EXPECT_NE(r.edge_component[4], r.edge_component[0]);
    EXPECT_NE(r.edge_component[1], r.edge_component[4]);
    // Loops are not bridges and do not articulate.
    EXPECT_TRUE(r.bridges.empty()) << to_string(algorithm);
    EXPECT_EQ(r.is_articulation, (std::vector<std::uint8_t>{0, 0, 0}));
  }
}

TEST(EdgeCases, SelfLoopsOnly) {
  const EdgeList g(3, {{0, 0}, {1, 1}, {2, 2}});
  for (const auto algorithm : kAll) {
    const BccResult r = solve(g, algorithm);
    EXPECT_EQ(r.num_components, 3u) << to_string(algorithm);
    EXPECT_TRUE(testutil::same_partition(r.edge_component,
                                         std::vector<vid>{0, 1, 2}))
        << to_string(algorithm);
    EXPECT_TRUE(r.bridges.empty()) << to_string(algorithm);
    EXPECT_EQ(r.is_articulation, (std::vector<std::uint8_t>{0, 0, 0}));
  }
}

TEST(EdgeCases, DisconnectedMixtureAllAlgorithmsAgree) {
  // Triangle, path, isolated vertices, 4-cycle.
  EdgeList g(13, {{0, 1},
                  {1, 2},
                  {2, 0},
                  {3, 4},
                  {4, 5},
                  {7, 8},
                  {8, 9},
                  {9, 10},
                  {10, 7}});
  const testutil::RefBcc ref = testutil::reference_bcc(g);
  for (const auto algorithm : kAll) {
    const BccResult r = solve(g, algorithm);
    ASSERT_EQ(r.num_components, ref.count) << to_string(algorithm);
    EXPECT_TRUE(testutil::same_partition(r.edge_component, ref.edge_comp))
        << to_string(algorithm);
    EXPECT_EQ(r.is_articulation, testutil::brute_force_articulation(g))
        << to_string(algorithm);
  }
}

TEST(EdgeCases, ManySmallComponents) {
  // 30 disjoint triangles.
  EdgeList g(90, {});
  for (vid b = 0; b < 30; ++b) {
    const vid base = 3 * b;
    g.add_edge(base, base + 1);
    g.add_edge(base + 1, base + 2);
    g.add_edge(base + 2, base);
  }
  for (const auto algorithm : kAll) {
    const BccResult r = solve(g, algorithm);
    EXPECT_EQ(r.num_components, 30u) << to_string(algorithm);
  }
}

TEST(EdgeCases, AutoSkipsProbeOnDegenerateInputs) {
  // Degenerate inputs fall under kAuto's edge cutoff and go straight
  // to the sequential solver without opening a dispatch span at all.
  const EdgeList degenerates[] = {
      EdgeList(0, {}),                          // empty
      EdgeList(40, {}),                         // vertices, no edges
      EdgeList(3, {{0, 0}, {1, 1}, {2, 2}}),    // all self-loops
  };
  for (const EdgeList& g : degenerates) {
    const BccResult r = solve(g, BccAlgorithm::kAuto);
    EXPECT_EQ(r.trace.find_path("dispatch"), nullptr) << "n=" << g.n;
    if (g.n > 0) {  // n == 0 returns before any span opens
      EXPECT_NE(r.trace.find_path("sequential"), nullptr) << "n=" << g.n;
    }
    EXPECT_EQ(r.num_components, g.n == 3 ? 3u : 0u);
  }
}

TEST(EdgeCases, InvalidInputsThrow) {
  Executor ex(1);
  EdgeList bad(2, {{0, 5}});
  EdgeList ok(3, {{0, 1}});
  SolveOptions opt;
  opt.root = 9;
  // Every engine, the paper's included, rejects both inputs in the
  // shared frame with the same named error.
  const auto error_of = [&](const EdgeList& g, Engine engine,
                            const SolveOptions& o) -> std::string {
    try {
      testutil::solve(ex, g, engine, o);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no error";
  };
  for (const auto engine : kAll) {
    EXPECT_EQ(error_of(bad, engine, {}),
              "biconnected_components: edge endpoint out of range")
        << to_string(engine);
    EXPECT_EQ(error_of(ok, engine, opt),
              "biconnected_components: root out of range")
        << to_string(engine);
  }
}

TEST(EdgeCases, RootInsideResultIsRespected) {
  const EdgeList g = gen::cycle(8);
  Executor ex(2);
  SolveOptions opt;
  opt.root = 5;
  const BccResult r = testutil::solve(ex, g, paper::Algorithm::kTvOpt, opt);
  EXPECT_EQ(r.num_components, 1u);
}

TEST(EdgeCases, HighThreadOversubscription) {
  // More threads than vertices in some components.
  const EdgeList g = gen::random_gnm(64, 80, 9);
  const testutil::RefBcc ref = testutil::reference_bcc(g);
  for (const Engine algorithm :
       {Engine(paper::Algorithm::kTvSmp), Engine(paper::Algorithm::kTvOpt),
        Engine(paper::Algorithm::kTvFilter), Engine(BccAlgorithm::kFastBcc)}) {
    const BccResult r = solve(g, algorithm, /*threads=*/16);
    ASSERT_EQ(r.num_components, ref.count) << to_string(algorithm);
    EXPECT_TRUE(testutil::same_partition(r.edge_component, ref.edge_comp));
  }
}

TEST(EdgeCases, ThreadsOptionConvenienceOverload) {
  // A context sized from the options' thread count, as the owning
  // overload that left the library built it.
  const EdgeList g = gen::cycle(64);
  paper::PaperOptions opt;
  opt.algorithm = paper::Algorithm::kTvOpt;
  opt.threads = 4;
  BccContext ctx(opt.threads);
  const BccResult r = paper::solve(ctx, g, opt);
  EXPECT_EQ(r.num_components, 1u);
  EXPECT_EQ(ctx.executor().threads(), 4);
}

}  // namespace
}  // namespace parbcc
