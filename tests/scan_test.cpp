#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "scan/compact.hpp"
#include "scan/scan.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace parbcc {
namespace {

std::vector<std::uint64_t> random_values(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = rng.below(1000);
  return v;
}

/// (size, threads) sweep shared by the scan properties.
class ScanParam
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(ScanParam, ExclusiveMatchesSerialReference) {
  const auto [n, threads] = GetParam();
  Executor ex(threads);
  Workspace ws;
  const auto in = random_values(n, n * 31 + threads);
  std::vector<std::uint64_t> out(n);
  const auto total = exclusive_scan(ex, ws, in.data(), out.data(), n,
                                    std::uint64_t{5});
  std::uint64_t running = 5;
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(out[i], running) << "at " << i;
    running += in[i];
  }
  EXPECT_EQ(total, running);
}

TEST_P(ScanParam, InclusiveMatchesSerialReference) {
  const auto [n, threads] = GetParam();
  Executor ex(threads);
  Workspace ws;
  const auto in = random_values(n, n * 17 + threads);
  std::vector<std::uint64_t> out(n);
  const auto total = inclusive_scan(ex, ws, in.data(), out.data(), n,
                                    std::uint64_t{0});
  std::uint64_t running = 0;
  for (std::size_t i = 0; i < n; ++i) {
    running += in[i];
    ASSERT_EQ(out[i], running) << "at " << i;
  }
  EXPECT_EQ(total, running);
}

TEST_P(ScanParam, ExclusiveScanInPlace) {
  const auto [n, threads] = GetParam();
  Executor ex(threads);
  Workspace ws;
  auto data = random_values(n, n + 99);
  const auto expect = [&] {
    std::vector<std::uint64_t> e(n);
    std::uint64_t run = 0;
    for (std::size_t i = 0; i < n; ++i) {
      e[i] = run;
      run += data[i];
    }
    return e;
  }();
  exclusive_scan(ex, ws, data.data(), data.data(), n, std::uint64_t{0});
  EXPECT_EQ(data, expect);
}

TEST_P(ScanParam, ReduceMatchesAccumulate) {
  const auto [n, threads] = GetParam();
  Executor ex(threads);
  Workspace ws;
  const auto in = random_values(n, n * 7 + 3);
  const auto total = reduce(ex, ws, in.data(), n, std::uint64_t{0});
  EXPECT_EQ(total, std::accumulate(in.begin(), in.end(), std::uint64_t{0}));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScanParam,
    ::testing::Combine(::testing::Values<std::size_t>(0, 1, 2, 100, 1023,
                                                      1024, 50000),
                       ::testing::Values(1, 2, 4, 7)));

TEST(Reduce, NonCommutativeAssociativeOpCombinesInOrder) {
  // Affine-map composition (a, b) := x -> a*x + b (mod p) is
  // associative but not commutative, so block order matters.
  struct Affine {
    std::uint64_t a = 1, b = 0;
    bool operator==(const Affine&) const = default;
  };
  constexpr std::uint64_t p = 1000000007ULL;
  const auto compose = [](Affine f, Affine g) {
    return Affine{f.a * g.a % p, (f.a * g.b + f.b) % p};
  };
  Executor ex(3);
  Workspace ws;
  std::vector<Affine> maps(3000);
  Xoshiro256 rng(4);
  for (auto& f : maps) f = {1 + rng.below(p - 1), rng.below(p)};
  const Affine parallel =
      reduce(ex, ws, maps.data(), maps.size(), Affine{}, compose);
  Affine serial;
  for (const auto& f : maps) serial = compose(serial, f);
  EXPECT_EQ(parallel, serial);
}

TEST(Compact, PacksSelectedIndicesInOrder) {
  Executor ex(4);
  Workspace ws;
  const std::size_t n = 30000;
  std::vector<std::uint32_t> out(n);
  out.resize(
      pack_indices(ex, ws, n, [](std::size_t i) { return i % 3 == 0; }, out));
  EXPECT_EQ(out.size(), (n + 2) / 3);
  for (std::size_t k = 0; k < out.size(); ++k) {
    ASSERT_EQ(out[k], 3 * k);
  }
}

TEST(Compact, EmitReceivesDenseDestinations) {
  Executor ex(3);
  Workspace ws;
  const std::size_t n = 10000;
  std::vector<std::size_t> dst_of(n, SIZE_MAX);
  const auto count = pack_into(
      ex, ws, n, [](std::size_t i) { return i % 7 == 1; },
      [&](std::size_t dst, std::size_t i) { dst_of[i] = dst; });
  std::size_t expect = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 7 == 1) {
      ASSERT_EQ(dst_of[i], expect++);
    } else {
      ASSERT_EQ(dst_of[i], SIZE_MAX);
    }
  }
  EXPECT_EQ(count, expect);
}

TEST(Compact, AllAndNoneSelected) {
  Executor ex(2);
  Workspace ws;
  std::vector<std::uint32_t> out(5000);
  EXPECT_EQ(pack_indices(ex, ws, 5000, [](std::size_t) { return true; }, out),
            5000u);
  for (std::size_t k = 0; k < out.size(); ++k) ASSERT_EQ(out[k], k);
  EXPECT_EQ(pack_indices(ex, ws, 5000, [](std::size_t) { return false; }, out),
            0u);
}

}  // namespace
}  // namespace parbcc
