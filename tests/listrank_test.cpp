#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "paper/list_ranking.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace parbcc {
namespace {

/// Build a list over nodes [0, n) whose traversal order is a seeded
/// random permutation; returns (succ, head).
std::pair<std::vector<vid>, vid> random_list(std::size_t n,
                                             std::uint64_t seed) {
  std::vector<vid> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  Xoshiro256 rng(seed);
  std::shuffle(perm.begin(), perm.end(), rng);
  std::vector<vid> succ(n, kNoVertex);
  for (std::size_t i = 0; i + 1 < n; ++i) succ[perm[i]] = perm[i + 1];
  return {std::move(succ), n == 0 ? kNoVertex : perm[0]};
}

/// Expected rank per node from the permutation directly.
std::vector<vid> expected_ranks(const std::vector<vid>& succ, vid head) {
  std::vector<vid> rank(succ.size());
  vid v = head;
  for (std::size_t r = 0; r < succ.size(); ++r) {
    rank[v] = static_cast<vid>(r);
    v = succ[v];
  }
  return rank;
}

class ListRankParam
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(ListRankParam, WyllieMatchesReference) {
  const auto [n, threads] = GetParam();
  if (n == 0) return;
  Executor ex(threads);
  Workspace ws;
  const auto [succ, head] = random_list(n, n + 1);
  const auto expect = expected_ranks(succ, head);
  std::vector<vid> rank(n);
  list_rank_wyllie(ex, ws, succ.data(), rank.data(), n, head);
  EXPECT_EQ(rank, expect);
}

TEST_P(ListRankParam, HelmanJajaMatchesReference) {
  const auto [n, threads] = GetParam();
  if (n == 0) return;
  Executor ex(threads);
  Workspace ws;
  const auto [succ, head] = random_list(n, n + 2);
  const auto expect = expected_ranks(succ, head);
  std::vector<vid> rank(n);
  list_rank_hj(ex, ws, succ.data(), rank.data(), n, head);
  EXPECT_EQ(rank, expect);
}

TEST_P(ListRankParam, IndependentSetMatchesReference) {
  const auto [n, threads] = GetParam();
  if (n == 0) return;
  Executor ex(threads);
  Workspace ws;
  const auto [succ, head] = random_list(n, n + 3);
  const auto expect = expected_ranks(succ, head);
  std::vector<vid> rank(n);
  list_rank_independent_set(ex, ws, succ.data(), rank.data(), n, head);
  EXPECT_EQ(rank, expect);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ListRankParam,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 3, 100, 2047,
                                                      2048, 65536),
                       ::testing::Values(1, 2, 4, 7)));

TEST(ListRankSequential, IdentityChain) {
  const std::size_t n = 1000;
  std::vector<vid> succ(n);
  for (std::size_t i = 0; i + 1 < n; ++i) succ[i] = static_cast<vid>(i + 1);
  succ[n - 1] = kNoVertex;
  std::vector<vid> rank(n);
  list_rank_sequential(succ.data(), rank.data(), n, 0);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(rank[i], i);
}

TEST(ListRankSequential, DetectsShortList) {
  // Two disjoint chains: walking from the head covers only half.
  std::vector<vid> succ = {1, kNoVertex, 3, kNoVertex};
  std::vector<vid> rank(4);
  EXPECT_THROW(list_rank_sequential(succ.data(), rank.data(), 4, 0),
               std::invalid_argument);
}

TEST(ListRankHj, DetectsShortList) {
  Executor ex(4);
  Workspace ws;
  const std::size_t n = 10000;
  auto [succ, head] = random_list(n, 5);
  // Cut the list in half: nodes after the cut become unreachable.
  vid v = head;
  for (std::size_t i = 0; i < n / 2; ++i) v = succ[v];
  succ[v] = kNoVertex;
  std::vector<vid> rank(n);
  EXPECT_THROW(list_rank_hj(ex, ws, succ.data(), rank.data(), n, head),
               std::invalid_argument);
}

TEST(ListRankHj, DifferentSeedsSameAnswer) {
  Executor ex(4);
  Workspace ws;
  const std::size_t n = 50000;
  const auto [succ, head] = random_list(n, 123);
  const auto expect = expected_ranks(succ, head);
  std::vector<vid> rank_a(n), rank_b(n);
  list_rank_hj(ex, ws, succ.data(), rank_a.data(), n, head, 1);
  list_rank_hj(ex, ws, succ.data(), rank_b.data(), n, head, 999);
  EXPECT_EQ(rank_a, expect);
  EXPECT_EQ(rank_b, expect);
}

TEST(ListRankAll, AgreeOnSingleton) {
  Executor ex(2);
  Workspace ws;
  std::vector<vid> succ = {kNoVertex};
  std::vector<vid> rank = {7};
  list_rank_sequential(succ.data(), rank.data(), 1, 0);
  EXPECT_EQ(rank[0], 0u);
  rank[0] = 7;
  list_rank_wyllie(ex, ws, succ.data(), rank.data(), 1, 0);
  EXPECT_EQ(rank[0], 0u);
  rank[0] = 7;
  list_rank_hj(ex, ws, succ.data(), rank.data(), 1, 0);
  EXPECT_EQ(rank[0], 0u);
}

}  // namespace
}  // namespace parbcc
