#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <numeric>
#include <set>
#include <vector>

#include "util/barrier.hpp"
#include "util/bitvector.hpp"
#include "util/concat.hpp"
#include "util/padded.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace parbcc {
namespace {

TEST(Barrier, SingleThreadNeverBlocks) {
  Barrier barrier(1);
  for (int i = 0; i < 100; ++i) barrier.wait();
}

TEST(Barrier, PhasesStaySynchronized) {
  constexpr int kThreads = 4;
  constexpr int kPhases = 200;
  Executor ex(kThreads);
  std::atomic<int> counter{0};
  std::vector<int> seen_at_phase(kPhases, -1);
  ex.run([&](int tid) {
    for (int phase = 0; phase < kPhases; ++phase) {
      counter.fetch_add(1);
      ex.barrier().wait();
      // After the barrier every thread must observe the full increment
      // count of this phase.
      const int expect = kThreads * (phase + 1);
      EXPECT_EQ(counter.load(), expect) << "tid " << tid;
      ex.barrier().wait();
    }
  });
}

TEST(Executor, RunExecutesEveryTid) {
  Executor ex(6);
  std::vector<std::atomic<int>> hits(6);
  for (auto& h : hits) h.store(0);
  ex.run([&](int tid) { hits[static_cast<std::size_t>(tid)].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Executor, RunIsReusable) {
  Executor ex(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    ex.run([&](int) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 150);
}

TEST(Executor, ParallelForCoversRangeExactlyOnce) {
  for (const int threads : {1, 2, 5}) {
    Executor ex(threads);
    const std::size_t n = 10007;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    ex.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(Executor, GrainedParallelForCoversRangeExactlyOnce) {
  Executor ex(4);
  const std::size_t n = 5000;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  ex.parallel_for(0, n, 64, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(Executor, GrainedParallelForSurvivesOversizedGrain) {
  // A grain near SIZE_MAX must not wrap any chunk arithmetic into
  // duplicated or skipped indices.
  Executor ex(4);
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  ex.parallel_for(0, n, std::size_t{1} << 63,
                  [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);

  // Any grain > n must behave exactly like one whole-range chunk.
  for (auto& h : hits) h.store(0);
  ex.parallel_for(0, n, n + 1, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(Executor, ParallelForEmptyAndSingleton) {
  Executor ex(4);
  int count = 0;
  ex.parallel_for(0, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 0);
  ex.parallel_for(1, [&](std::size_t i) { count += static_cast<int>(i) + 1; });
  EXPECT_EQ(count, 1);
}

TEST(Executor, BlockRangePartitionsWithoutGapsOrOverlap) {
  for (const std::size_t n : {0ul, 1ul, 7ul, 100ul, 1001ul}) {
    for (const int p : {1, 2, 3, 8, 16}) {
      std::size_t expected_begin = 0;
      for (int tid = 0; tid < p; ++tid) {
        const auto [begin, end] = Executor::block_range(n, p, tid);
        EXPECT_EQ(begin, expected_begin);
        EXPECT_LE(begin, end);
        expected_begin = end;
      }
      EXPECT_EQ(expected_begin, n);
    }
  }
}

TEST(Executor, BlockRangeSurvivesHugeN) {
  // n * tid wraps 64-bit multiplication for n > SIZE_MAX / p; the
  // partition must still be exact (the products are taken in 128-bit).
  const std::size_t kMax = std::numeric_limits<std::size_t>::max();
  for (const std::size_t n : {kMax, kMax - 1, kMax / 2 + 3}) {
    for (const int p : {2, 3, 12, 16}) {
      std::size_t expected_begin = 0;
      for (int tid = 0; tid < p; ++tid) {
        const auto [begin, end] = Executor::block_range(n, p, tid);
        ASSERT_EQ(begin, expected_begin) << "n=" << n << " p=" << p;
        ASSERT_LE(begin, end);
        // Balanced: every block within one element of n / p.
        ASSERT_LE(end - begin, n / static_cast<std::size_t>(p) + 1);
        expected_begin = end;
      }
      ASSERT_EQ(expected_begin, n);
    }
  }
  // Exact boundary: the largest n whose product with tid = p - 1 still
  // fits in 64 bits, and its successor (first wrapping value).
  const int p = 12;
  const std::size_t fits = kMax / (p - 1);
  for (const std::size_t n : {fits, fits + 1}) {
    std::size_t expected_begin = 0;
    for (int tid = 0; tid < p; ++tid) {
      const auto [begin, end] = Executor::block_range(n, p, tid);
      ASSERT_EQ(begin, expected_begin) << "n=" << n;
      expected_begin = end;
    }
    ASSERT_EQ(expected_begin, n);
  }
}

TEST(Executor, PropagatesExceptionFromCaller) {
  Executor ex(4);
  EXPECT_THROW(
      ex.run([](int tid) {
        if (tid == 0) throw std::runtime_error("boom");
      }),
      std::runtime_error);
  // The pool must still be usable afterwards.
  std::atomic<int> hits{0};
  ex.run([&](int) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 4);
}

TEST(Executor, PropagatesExceptionFromWorker) {
  Executor ex(4);
  EXPECT_THROW(
      ex.run([](int tid) {
        if (tid == 3) throw std::runtime_error("worker boom");
      }),
      std::runtime_error);
  std::atomic<int> hits{0};
  ex.run([&](int) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 4);
}

TEST(Executor, ParallelForPropagatesExceptions) {
  Executor ex(3);
  EXPECT_THROW(ex.parallel_for(1000,
                               [](std::size_t i) {
                                 if (i == 999) throw std::logic_error("x");
                               }),
               std::logic_error);
}

TEST(Executor, RejectsNonPositiveThreadCount) {
  EXPECT_THROW(Executor(0), std::invalid_argument);
  EXPECT_THROW(Executor(-3), std::invalid_argument);
}

TEST(Padded, ElementsDoNotShareCacheLines) {
  std::vector<Padded<int>> a(4);
  const auto* p0 = reinterpret_cast<const char*>(&a[0]);
  const auto* p1 = reinterpret_cast<const char*>(&a[1]);
  EXPECT_GE(p1 - p0, static_cast<std::ptrdiff_t>(kCacheLine));
}

TEST(Rng, SplitMix64IsDeterministicAndSpreads) {
  EXPECT_EQ(splitmix64(1), splitmix64(1));
  std::set<std::uint64_t> values;
  for (std::uint64_t i = 0; i < 1000; ++i) values.insert(splitmix64(i));
  EXPECT_EQ(values.size(), 1000u);
}

TEST(Rng, XoshiroSameSeedSameStream) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, XoshiroBelowStaysInBound) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, XoshiroBelowHitsAllResidues) {
  Xoshiro256 rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(BitVector, SetGetClearCount) {
  BitVector bits(130);
  EXPECT_EQ(bits.count(), 0u);
  bits.set(0);
  bits.set(63);
  bits.set(64);
  bits.set(129);
  EXPECT_TRUE(bits.get(0));
  EXPECT_TRUE(bits.get(63));
  EXPECT_TRUE(bits.get(64));
  EXPECT_TRUE(bits.get(129));
  EXPECT_FALSE(bits.get(1));
  EXPECT_EQ(bits.count(), 4u);
  bits.clear(63);
  EXPECT_FALSE(bits.get(63));
  EXPECT_EQ(bits.count(), 3u);
  bits.reset();
  EXPECT_EQ(bits.count(), 0u);
}

TEST(AtomicBitVector, TestAndSetReportsFirstWinnerOnly) {
  AtomicBitVector bits(100);
  EXPECT_TRUE(bits.test_and_set(37));
  EXPECT_FALSE(bits.test_and_set(37));
  EXPECT_TRUE(bits.get(37));
  EXPECT_FALSE(bits.get(36));
}

TEST(AtomicBitVector, ConcurrentClaimsAreExclusive) {
  constexpr std::size_t n = 4096;
  AtomicBitVector bits(n);
  Executor ex(4);
  std::vector<std::atomic<int>> winners(n);
  for (auto& w : winners) w.store(0);
  ex.run([&](int) {
    for (std::size_t i = 0; i < n; ++i) {
      if (bits.test_and_set(i)) winners[i].fetch_add(1);
    }
  });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(winners[i].load(), 1);
}

TEST(ConcatThreadBuffers, SerialAndForkedPathsMatchTheTidOrderConcat) {
  // Totals on both sides of the serial cutoff, spread unevenly (buffer
  // 1 empty) so the offsets are non-trivial.
  for (const int p : {1, 4, 12}) {
    Executor ex(p);
    for (const std::size_t total :
         {kConcatSerialCutoff - 1, kConcatSerialCutoff,
          kConcatSerialCutoff + 1, 4 * kConcatSerialCutoff}) {
      std::vector<std::vector<std::uint32_t>> bufs(
          static_cast<std::size_t>(p));
      for (std::size_t i = 0; i < total; ++i) {
        std::size_t t = (i * 7) % static_cast<std::size_t>(p);
        if (t == 1) t = 0;  // buffer 1 stays empty
        bufs[t].push_back(static_cast<std::uint32_t>(i));
      }
      std::vector<std::uint32_t> expected;
      std::vector<std::size_t> expected_offset;
      for (const auto& b : bufs) {
        expected_offset.push_back(expected.size());
        expected.insert(expected.end(), b.begin(), b.end());
      }
      std::vector<std::uint32_t> out(total);
      std::vector<std::size_t> offset(static_cast<std::size_t>(p) + 1);
      const std::size_t written = concat_thread_buffers(
          ex,
          [&](int t) -> const std::vector<std::uint32_t>& {
            return bufs[static_cast<std::size_t>(t)];
          },
          std::span<std::size_t>(offset), out.data());
      EXPECT_EQ(written, total) << "p=" << p;
      EXPECT_EQ(out, expected) << "p=" << p << " total=" << total;
      offset.resize(static_cast<std::size_t>(p));
      EXPECT_EQ(offset, expected_offset) << "p=" << p << " total=" << total;
    }
  }
}

}  // namespace
}  // namespace parbcc
