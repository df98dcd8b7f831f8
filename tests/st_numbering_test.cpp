#include <gtest/gtest.h>

#include "core/bcc.hpp"
#include "graph/generators.hpp"
#include "st_numbering.hpp"
#include "test_util.hpp"
#include "util/thread_pool.hpp"

namespace parbcc {
namespace {

void expect_valid(const EdgeList& g, vid s, vid t) {
  const StNumbering st = st_number(g, s, t);
  EXPECT_TRUE(is_valid_st_numbering(g, s, t, st));
}

TEST(StNumbering, TriangleHandChecked) {
  EdgeList g(3, {{0, 1}, {1, 2}, {2, 0}});
  const StNumbering st = st_number(g, 0, 1);
  EXPECT_EQ(st.number[0], 1u);
  EXPECT_EQ(st.number[1], 3u);
  EXPECT_EQ(st.number[2], 2u);
  EXPECT_TRUE(is_valid_st_numbering(g, 0, 1, st));
}

TEST(StNumbering, SingleEdgeGraph) {
  EdgeList g(2, {{0, 1}});
  const StNumbering st = st_number(g, 1, 0);
  EXPECT_EQ(st.number[1], 1u);
  EXPECT_EQ(st.number[0], 2u);
}

TEST(StNumbering, StructuredBiconnectedFamilies) {
  expect_valid(gen::cycle(20), 0, 1);
  expect_valid(gen::cycle(20), 5, 4);
  expect_valid(gen::complete(15), 3, 7);
  expect_valid(gen::grid_torus(5, 7), 0, 1);
  expect_valid(gen::wheel(12), 0, 4);
  expect_valid(gen::complete_bipartite(4, 5), 0, 4);
}

TEST(StNumbering, EveryEdgeOfASmallGraphWorksAsST) {
  const EdgeList g = gen::wheel(8);
  for (const Edge& e : g.edges) {
    expect_valid(g, e.u, e.v);
    expect_valid(g, e.v, e.u);
  }
}

class StParam : public ::testing::TestWithParam<int> {};

TEST_P(StParam, RandomBiconnectedGraphs) {
  const int seed = GetParam();
  const EdgeList g = gen::random_connected_gnm(400, 3200, seed);
  Executor ex(2);
  const BccResult r = testutil::solve(ex, g);
  if (r.num_components != 1) GTEST_SKIP() << "not biconnected";
  // Use a few different st edges per instance.
  for (const eid e : {eid{0}, static_cast<eid>(g.m() / 2),
                      static_cast<eid>(g.m() - 1)}) {
    expect_valid(g, g.edges[e].u, g.edges[e].v);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, StParam, ::testing::Range(1, 11));

TEST(StNumbering, RejectsNonBiconnected) {
  // Path: 1 is an articulation point.
  EXPECT_THROW(st_number(gen::path(4), 0, 1), std::invalid_argument);
  // Two triangles sharing a vertex.
  EdgeList g(5, {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 2}});
  EXPECT_THROW(st_number(g, 0, 1), std::invalid_argument);
}

TEST(StNumbering, RejectsBadArguments) {
  const EdgeList g = gen::cycle(5);
  EXPECT_THROW(st_number(g, 0, 0), std::invalid_argument);   // s == t
  EXPECT_THROW(st_number(g, 0, 9), std::invalid_argument);   // out of range
  EXPECT_THROW(st_number(g, 0, 2), std::invalid_argument);   // not an edge
  EdgeList disconnected(6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
  EXPECT_THROW(st_number(disconnected, 0, 1), std::invalid_argument);
}

TEST(StNumbering, CheckerRejectsBogusNumberings) {
  const EdgeList g = gen::cycle(4);
  StNumbering st;
  st.number = {1, 2, 3, 4};
  EXPECT_TRUE(is_valid_st_numbering(g, 0, 3, st));
  st.number = {1, 3, 2, 4};  // vertex 1 (number 3): neighbours 0(1), 2(2):
                             // no higher neighbour
  EXPECT_FALSE(is_valid_st_numbering(g, 0, 3, st));
  st.number = {2, 1, 3, 4};  // s must be 1
  EXPECT_FALSE(is_valid_st_numbering(g, 0, 3, st));
  st.number = {1, 2, 2, 4};  // not a permutation
  EXPECT_FALSE(is_valid_st_numbering(g, 0, 3, st));
}

}  // namespace
}  // namespace parbcc
