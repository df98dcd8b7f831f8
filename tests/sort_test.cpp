#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "paper/sample_sort.hpp"
#include "sort/radix_sort.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace parbcc {
namespace {

std::vector<std::uint64_t> random_keys(std::size_t n, std::uint64_t seed,
                                       std::uint64_t bound) {
  Xoshiro256 rng(seed);
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = rng.below(bound);
  return v;
}

class SortParam
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(SortParam, SampleSortMatchesStdSort) {
  const auto [n, threads] = GetParam();
  Executor ex(threads);
  Workspace ws;
  auto data = random_keys(n, n * 3 + threads, ~std::uint64_t{0});
  auto expect = data;
  std::sort(expect.begin(), expect.end());
  sample_sort(ex, ws, data.data(), data.size());
  EXPECT_EQ(data, expect);
}

TEST_P(SortParam, RadixSortMatchesStdSort) {
  const auto [n, threads] = GetParam();
  Executor ex(threads);
  Workspace ws;
  auto data = random_keys(n, n * 5 + threads, ~std::uint64_t{0});
  auto expect = data;
  std::sort(expect.begin(), expect.end());
  radix_sort_u64(ex, ws, data);
  EXPECT_EQ(data, expect);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SortParam,
    ::testing::Combine(::testing::Values<std::size_t>(0, 1, 2, 17, 4095, 4096,
                                                      100000),
                       ::testing::Values(1, 2, 4, 7)));

TEST(SampleSort, AlreadySortedAndReversed) {
  Executor ex(4);
  Workspace ws;
  std::vector<std::uint64_t> asc(20000);
  for (std::size_t i = 0; i < asc.size(); ++i) asc[i] = i;
  auto expect = asc;
  auto desc = asc;
  std::reverse(desc.begin(), desc.end());
  sample_sort(ex, ws, asc.data(), asc.size());
  EXPECT_EQ(asc, expect);
  sample_sort(ex, ws, desc.data(), desc.size());
  EXPECT_EQ(desc, expect);
}

TEST(SampleSort, HeavyDuplicates) {
  Executor ex(4);
  Workspace ws;
  auto data = random_keys(50000, 9, 3);  // only keys 0,1,2
  auto expect = data;
  std::sort(expect.begin(), expect.end());
  sample_sort(ex, ws, data.data(), data.size());
  EXPECT_EQ(data, expect);
}

TEST(SampleSort, CustomComparatorDescending) {
  Executor ex(3);
  Workspace ws;
  auto data = random_keys(30000, 21, 1000);
  auto expect = data;
  std::sort(expect.begin(), expect.end(), std::greater<>());
  sample_sort(ex, ws, data.data(), data.size(), std::greater<>());
  EXPECT_EQ(data, expect);
}

TEST(RadixSort, AllEqualKeys) {
  Executor ex(4);
  Workspace ws;
  std::vector<std::uint64_t> data(10000, 42);
  radix_sort_u64(ex, ws, data);
  for (const auto x : data) ASSERT_EQ(x, 42u);
}

TEST(RadixSort, SmallKeyRangeSkipsHighPasses) {
  Executor ex(4);
  Workspace ws;
  auto data = random_keys(50000, 13, 255);  // single byte of entropy
  auto expect = data;
  std::sort(expect.begin(), expect.end());
  radix_sort_u64(ex, ws, data);
  EXPECT_EQ(data, expect);
}

TEST(RadixSort, FullWidthKeys) {
  Executor ex(2);
  Workspace ws;
  std::vector<std::uint64_t> data = {~std::uint64_t{0}, 0, 1,
                                     std::uint64_t{1} << 63, 42};
  radix_sort_u64(ex, ws, data);
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
}

TEST(RadixSortKv, PayloadFollowsKeysStably) {
  for (const int threads : {1, 4}) {
    Executor ex(threads);
    Workspace ws;
    Xoshiro256 rng(77);
    const std::size_t n = 30000;
    std::vector<std::uint64_t> keys(n);
    std::vector<std::uint32_t> vals(n);
    for (std::size_t i = 0; i < n; ++i) {
      keys[i] = rng.below(500);  // many duplicates to exercise stability
      vals[i] = static_cast<std::uint32_t>(i);
    }
    auto keys_copy = keys;
    radix_sort_kv(ex, ws, keys, vals);
    ASSERT_TRUE(std::is_sorted(keys.begin(), keys.end()));
    // Payload correctness: vals[i] is the original index of keys[i].
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(keys[i], keys_copy[vals[i]]);
    }
    // Stability: equal keys keep ascending original indices.
    for (std::size_t i = 1; i < n; ++i) {
      if (keys[i] == keys[i - 1]) {
        ASSERT_LT(vals[i - 1], vals[i]);
      }
    }
  }
}

TEST(RadixSortKv, EmptyAndSingle) {
  Executor ex(4);
  Workspace ws;
  std::vector<std::uint64_t> keys;
  std::vector<std::uint32_t> vals;
  radix_sort_kv(ex, ws, keys, vals);
  EXPECT_TRUE(keys.empty());
  keys = {9};
  vals = {1};
  radix_sort_kv(ex, ws, keys, vals);
  EXPECT_EQ(keys[0], 9u);
  EXPECT_EQ(vals[0], 1u);
}

}  // namespace
}  // namespace parbcc
