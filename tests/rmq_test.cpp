#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "paper/sparse_table.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace parbcc {
namespace {

std::vector<vid> random_array(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<vid> v(n);
  for (auto& x : v) x = static_cast<vid>(rng.below(1000));
  return v;
}

class RmqParam
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(RmqParam, MinQueriesMatchBruteForce) {
  const auto [n, threads] = GetParam();
  Executor ex(threads);
  const auto a = random_array(n, n * 13 + threads);
  const MinTable<vid> table(ex, a.data(), n);
  Xoshiro256 rng(n + 7);
  for (int q = 0; q < 500; ++q) {
    std::size_t l = rng.below(n);
    std::size_t r = rng.below(n);
    if (l > r) std::swap(l, r);
    const vid expect = *std::min_element(a.begin() + l, a.begin() + r + 1);
    ASSERT_EQ(table.query(l, r), expect) << "[" << l << "," << r << "]";
  }
}

TEST_P(RmqParam, MaxQueriesMatchBruteForce) {
  const auto [n, threads] = GetParam();
  Executor ex(threads);
  const auto a = random_array(n, n * 19 + threads);
  const MaxTable<vid> table(ex, a.data(), n);
  Xoshiro256 rng(n + 11);
  for (int q = 0; q < 500; ++q) {
    std::size_t l = rng.below(n);
    std::size_t r = rng.below(n);
    if (l > r) std::swap(l, r);
    const vid expect = *std::max_element(a.begin() + l, a.begin() + r + 1);
    ASSERT_EQ(table.query(l, r), expect) << "[" << l << "," << r << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RmqParam,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 3, 100, 1024,
                                                      30000),
                       ::testing::Values(1, 4)));

TEST(SparseTable, SingleElementAndFullRange) {
  Executor ex(2);
  const std::vector<vid> a = {5, 1, 9, 3};
  const MinTable<vid> table(ex, a.data(), a.size());
  EXPECT_EQ(table.query(0, 0), 5u);
  EXPECT_EQ(table.query(2, 2), 9u);
  EXPECT_EQ(table.query(0, 3), 1u);
  EXPECT_EQ(table.query(2, 3), 3u);
}

TEST(SparseTable, PowerOfTwoBoundaries) {
  Executor ex(2);
  std::vector<vid> a(64);
  for (std::size_t i = 0; i < 64; ++i) a[i] = static_cast<vid>(64 - i);
  const MinTable<vid> table(ex, a.data(), 64);
  EXPECT_EQ(table.query(0, 63), 1u);
  EXPECT_EQ(table.query(0, 31), 33u);
  EXPECT_EQ(table.query(32, 63), 1u);
  EXPECT_EQ(table.query(15, 16), 48u);
}

}  // namespace
}  // namespace parbcc
