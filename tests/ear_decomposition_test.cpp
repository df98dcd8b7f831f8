#include <gtest/gtest.h>

#include <set>

#include "core/bcc.hpp"
#include "ear_decomposition.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"
#include "util/thread_pool.hpp"

namespace parbcc {
namespace {

void expect_valid_ears(Executor& ex, const EdgeList& g) {
  const EarDecomposition ears = ear_decomposition(ex, g);
  EXPECT_EQ(ears.num_ears, g.m() - g.n + 1);
  EXPECT_TRUE(is_ear_decomposition(g, ears));
}

TEST(EarDecomposition, CycleIsOneEar) {
  Executor ex(2);
  const EdgeList g = gen::cycle(8);
  const EarDecomposition ears = ear_decomposition(ex, g);
  EXPECT_EQ(ears.num_ears, 1u);
  EXPECT_EQ(ears.num_closed_ears, 0u);
  for (const vid id : ears.ear_of_edge) EXPECT_EQ(id, 0u);
}

TEST(EarDecomposition, ThetaGraphHasTwoEars) {
  Executor ex(1);
  // Two vertices joined by three internally disjoint paths.
  EdgeList g(5, {{0, 2}, {2, 1},    // path A
                 {0, 3}, {3, 1},    // path B
                 {0, 4}, {4, 1}});  // path C
  const EarDecomposition ears = ear_decomposition(ex, g);
  EXPECT_EQ(ears.num_ears, 2u);
  EXPECT_TRUE(is_ear_decomposition(g, ears, /*require_open=*/true));
}

TEST(EarDecomposition, TwoTrianglesSharingAVertex) {
  Executor ex(2);
  // Bridgeless but not biconnected: decomposition exists, and the
  // second triangle is necessarily a closed ear.
  EdgeList g(5, {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 2}});
  const EarDecomposition ears = ear_decomposition(ex, g);
  EXPECT_EQ(ears.num_ears, 2u);
  EXPECT_EQ(ears.num_closed_ears, 1u);
  EXPECT_TRUE(is_ear_decomposition(g, ears));
  EXPECT_FALSE(is_ear_decomposition(g, ears, /*require_open=*/true));
}

TEST(EarDecomposition, StructuredBiconnectedFamilies) {
  Executor ex(3);
  expect_valid_ears(ex, gen::complete(12));
  expect_valid_ears(ex, gen::grid_torus(5, 6));
  expect_valid_ears(ex, gen::wheel(15));
  expect_valid_ears(ex, gen::complete_bipartite(4, 6));
}

class EarParam : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(EarParam, RandomBiconnectedGraphs) {
  const auto [threads, seed] = GetParam();
  Executor ex(threads);
  const EdgeList g = gen::random_connected_gnm(300, 2400, seed);
  BccOptions opt;
  const BccResult r = testutil::solve(ex, g, opt);
  if (r.num_components != 1) GTEST_SKIP() << "instance not biconnected";
  expect_valid_ears(ex, g);
}

TEST_P(EarParam, CactiAreFullyDecomposable) {
  const auto [threads, seed] = GetParam();
  Executor ex(threads);
  // A cactus of cycles is 2-edge-connected... only if every block is a
  // cycle AND blocks chain without bridges — random_cactus guarantees
  // exactly that.  Every non-first ear attaches at one cut vertex, so
  // all of them are closed.
  const EdgeList g = gen::random_cactus(25, 7, seed);
  const EarDecomposition ears = ear_decomposition(ex, g);
  EXPECT_EQ(ears.num_ears, 25u);
  EXPECT_EQ(ears.num_closed_ears, 24u);
  EXPECT_TRUE(is_ear_decomposition(g, ears));
}

INSTANTIATE_TEST_SUITE_P(Sweep, EarParam,
                         ::testing::Combine(::testing::Values(1, 2, 4),
                                            ::testing::Values(1, 2, 3, 4,
                                                              5)));

TEST(EarDecomposition, RejectsBridges) {
  Executor ex(2);
  EXPECT_THROW(ear_decomposition(ex, gen::path(5)), std::invalid_argument);
  // Two triangles joined by a bridge.
  EdgeList g(6,
             {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 5}, {5, 3}});
  EXPECT_THROW(ear_decomposition(ex, g), std::invalid_argument);
}

TEST(EarDecomposition, RejectsDisconnectedAndTiny) {
  Executor ex(1);
  EdgeList two_triangles(6,
                         {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
  EXPECT_THROW(ear_decomposition(ex, two_triangles), std::invalid_argument);
  EXPECT_THROW(ear_decomposition(ex, EdgeList(2, {{0, 1}})),
               std::invalid_argument);
}

TEST(EarChecker, RejectsBogusDecompositions) {
  const EdgeList g = gen::cycle(6);
  EarDecomposition ears;
  ears.num_ears = 2;  // a cycle has exactly one ear
  ears.ear_of_edge = {0, 0, 0, 1, 1, 1};
  EXPECT_FALSE(is_ear_decomposition(g, ears));
  ears.num_ears = 1;
  ears.ear_of_edge = {0, 0, 0, 0, 0, 0};
  EXPECT_TRUE(is_ear_decomposition(g, ears));
  ears.ear_of_edge[2] = 7;  // out of range
  EXPECT_FALSE(is_ear_decomposition(g, ears));
}

}  // namespace
}  // namespace parbcc
