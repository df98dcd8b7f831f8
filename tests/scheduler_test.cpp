// Work-stealing fork-join scheduler tests: nested-region correctness,
// lazy-split range coverage, exception propagation out of stolen
// tasks, steal/split counter sanity, and equal results from every loop
// form, each swept over p in {1, 4, 12}.  Runs under the sanitize-smoke
// label so the TSan tree exercises the Chase-Lev deques at full width.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"
#include "util/work_deque.hpp"

namespace parbcc {
namespace {

class SchedulerParam : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Widths, SchedulerParam, ::testing::Values(1, 4, 12));

TEST_P(SchedulerParam, LazySplitCoversEveryIndexExactlyOnce) {
  Executor ex(GetParam());
  for (const std::size_t n : {0ul, 1ul, 2ul, 3ul, 1000ul, 65537ul}) {
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    ex.parallel_for(n, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
    }
  }
}

TEST_P(SchedulerParam, ExplicitGrainCoversSubrange) {
  Executor ex(GetParam());
  const std::size_t lo = 17, hi = 40961;
  for (const std::size_t grain : {1ul, 7ul, 512ul, 100000ul}) {
    std::vector<std::atomic<int>> hits(hi);
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    ex.parallel_for(lo, hi, grain, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < hi; ++i) {
      ASSERT_EQ(hits[i].load(), i >= lo ? 1 : 0) << "grain=" << grain;
    }
  }
}

TEST_P(SchedulerParam, NestedRegionsComputeSkewedRowSums) {
  // A deliberately skewed "adjacency": row r has r+1 entries, so the
  // last rows dwarf the first.  The inner loop is a nested parallel
  // region with a small grain — the per-vertex edge-loop idiom the
  // skew-sensitive hot paths use.
  Executor ex(GetParam());
  const std::size_t rows = 200;
  std::vector<std::uint64_t> sum(rows, 0);
  ex.parallel_for(0, rows, 1, [&](std::size_t r) {
    const std::size_t len = r + 1;
    std::atomic<std::uint64_t> acc{0};
    ex.parallel_for(0, len, 16, [&](std::size_t j) {
      acc.fetch_add(j + 1, std::memory_order_relaxed);
    });
    sum[r] = acc.load(std::memory_order_relaxed);
  });
  for (std::size_t r = 0; r < rows; ++r) {
    const std::uint64_t len = r + 1;
    ASSERT_EQ(sum[r], len * (len + 1) / 2) << "row " << r;
  }
}

TEST_P(SchedulerParam, ThreeDeepNestingStillExact) {
  Executor ex(GetParam());
  std::atomic<std::uint64_t> total{0};
  ex.parallel_for(0, 8, 1, [&](std::size_t) {
    ex.parallel_for(0, 8, 1, [&](std::size_t) {
      ex.parallel_for(0, 64, 4, [&](std::size_t k) {
        total.fetch_add(k, std::memory_order_relaxed);
      });
    });
  });
  EXPECT_EQ(total.load(), 8u * 8u * (64u * 63u / 2));
}

TEST_P(SchedulerParam, ParallelBlocksInvokesEveryTidExactlyOnce) {
  Executor ex(GetParam());
  const int p = ex.threads();
  for (const std::size_t n : {0ul, 1ul, 5ul, 10000ul}) {
    std::vector<std::atomic<int>> calls(static_cast<std::size_t>(p));
    for (auto& c : calls) c.store(0, std::memory_order_relaxed);
    std::atomic<std::size_t> covered{0};
    ex.parallel_blocks(n, [&](int tid, std::size_t begin, std::size_t end) {
      calls[static_cast<std::size_t>(tid)].fetch_add(1);
      covered.fetch_add(end - begin);
    });
    for (int t = 0; t < p; ++t) ASSERT_EQ(calls[static_cast<std::size_t>(t)].load(), 1);
    ASSERT_EQ(covered.load(), n);
  }
}

TEST_P(SchedulerParam, ExceptionFromStolenTaskPropagates) {
  Executor ex(GetParam());
  // Large range, tiny grain: many tasks, so on p > 1 the throwing
  // index is very likely executed by a thief.  Either way the error
  // must surface at the top-level join, and the pool must stay usable.
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(ex.parallel_for(0, 100000, 64,
                                 [&](std::size_t i) {
                                   if (i == 99999) {
                                     throw std::runtime_error("stolen boom");
                                   }
                                 }),
                 std::runtime_error);
    std::atomic<int> ok{0};
    ex.parallel_for(0, 1000, 8,
                    [&](std::size_t) { ok.fetch_add(1, std::memory_order_relaxed); });
    ASSERT_EQ(ok.load(), 1000);
  }
}

TEST_P(SchedulerParam, ExceptionFromNestedRegionPropagates) {
  Executor ex(GetParam());
  EXPECT_THROW(
      ex.parallel_for(0, 64, 1,
                      [&](std::size_t r) {
                        ex.parallel_for(0, 1024, 16, [&](std::size_t j) {
                          if (r == 63 && j == 1023) {
                            throw std::runtime_error("nested boom");
                          }
                        });
                      }),
      std::runtime_error);
}

TEST_P(SchedulerParam, CountersSeeSplitsAndTasks) {
  Executor ex(GetParam());
  ex.reset_scheduler_stats();
  std::atomic<std::uint64_t> acc{0};
  ex.parallel_for(0, 100000, 128, [&](std::size_t i) {
    acc.fetch_add(i, std::memory_order_relaxed);
  });
  const SchedulerStats s = ex.scheduler_stats();
  if (ex.threads() == 1) {
    // Serial fast path: no region, no forks.
    EXPECT_EQ(s.splits, 0u);
    EXPECT_EQ(s.tasks, 0u);
  } else {
    // 100000 / 128 leaves => at least a few hundred splits; every
    // forked task is eventually executed by someone.
    EXPECT_GT(s.splits, 100u);
    EXPECT_EQ(s.tasks, s.splits);
    EXPECT_LE(s.steals, s.tasks);
  }
  ex.reset_scheduler_stats();
  const SchedulerStats z = ex.scheduler_stats();
  EXPECT_EQ(z.splits + z.tasks + z.steals, 0u);
}

TEST_P(SchedulerParam, LoopFormsWriteIdenticalResults) {
  Executor ex(GetParam());
  const std::size_t n = 50000;
  std::vector<std::uint64_t> a(n), b(n);
  ex.parallel_for(n, [&](std::size_t i) { a[i] = i * i; });
  ex.parallel_for(0, n, 64, [&](std::size_t i) { b[i] = i * i; });
  EXPECT_EQ(a, b);
  ex.parallel_for(0, n, 64, [&](std::size_t i) { b[i] += i; });
  ex.parallel_blocks(n, [&](int, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) b[i] -= i;
  });
  EXPECT_EQ(a, b);
}

TEST_P(SchedulerParam, GrainedLoopSplitsAcrossWorkers) {
  Executor ex(GetParam());
  ex.reset_scheduler_stats();
  std::atomic<std::uint64_t> acc{0};
  ex.parallel_for(0, 20000, 32, [&](std::size_t i) {
    acc.fetch_add(1, std::memory_order_relaxed);
    (void)i;
  });
  EXPECT_EQ(acc.load(), 20000u);
  if (ex.threads() > 1) {
    EXPECT_GT(ex.scheduler_stats().splits, 0u);
  }
}

TEST_P(SchedulerParam, BusyAccountingProfilesLeafWork) {
  Executor ex(GetParam());
  ex.reset_scheduler_stats();
  ex.set_busy_accounting(true);
  std::atomic<std::uint64_t> sink{0};
  ex.parallel_for(0, 20000, 256, [&](std::size_t i) {
    std::uint64_t x = i;
    for (int k = 0; k < 50; ++k) x = x * 2862933555777941757ull + 3037000493ull;
    sink.fetch_add(x, std::memory_order_relaxed);
  });
  ex.set_busy_accounting(false);
  const SchedulerStats s = ex.scheduler_stats();
  if (ex.threads() == 1) {
    // Serial fast path bypasses the scheduler entirely.
    EXPECT_TRUE(s.busy_ns.empty());
  } else {
    ASSERT_FALSE(s.busy_ns.empty());
    std::uint64_t total = 0;
    for (const std::uint64_t b : s.busy_ns) total += b;
    EXPECT_GT(total, 0u);
  }
}

namespace {
struct NopTask final : ForkTask {
  std::atomic<int> claims{0};
  void run_task() override {}
};
}  // namespace

TEST(WorkDequeProtocol, StealHalfTakesHalfOldestFirstAndPopStaysLifo) {
  WorkDeque dq;
  std::array<NopTask, 8> tasks;
  for (auto& t : tasks) ASSERT_TRUE(dq.push(&t));
  ForkTask* out[WorkDeque::kMaxSteal];
  // 8 visible -> the thief claims half (4), oldest (top) first: the
  // largest remaining subranges under lazy binary splitting.
  std::size_t got = dq.steal_half(out, WorkDeque::kMaxSteal);
  ASSERT_EQ(got, 4u);
  for (std::size_t i = 0; i < got; ++i) EXPECT_EQ(out[i], &tasks[i]);
  // 4 left -> the next thief claims 2, continuing in top order.
  got = dq.steal_half(out, WorkDeque::kMaxSteal);
  ASSERT_EQ(got, 2u);
  EXPECT_EQ(out[0], &tasks[4]);
  EXPECT_EQ(out[1], &tasks[5]);
  // The owner still pops LIFO from the bottom, untouched by steals.
  EXPECT_EQ(dq.pop(), &tasks[7]);
  // The caller's buffer capacity caps the bite.
  got = dq.steal_half(out, 1);
  ASSERT_EQ(got, 1u);
  EXPECT_EQ(out[0], &tasks[6]);
  EXPECT_EQ(dq.pop(), nullptr);
  EXPECT_TRUE(dq.empty());
}

TEST(WorkDequeProtocol, ConcurrentStealHalfClaimsEachTaskExactlyOnce) {
  // The owner drains from the bottom while thieves bite halves off the
  // top; every task must be claimed by exactly one party.  This is the
  // race the per-element bottom_ re-read in steal_half exists for (a
  // k-wide CAS could hand a thief an element the owner already popped).
  constexpr int kRounds = 50;
  constexpr std::size_t kTasks = 512;
  for (int round = 0; round < kRounds; ++round) {
    WorkDeque dq;
    std::vector<NopTask> tasks(kTasks);
    for (auto& t : tasks) ASSERT_TRUE(dq.push(&t));
    std::atomic<bool> go{false};
    auto thief = [&] {
      ForkTask* out[WorkDeque::kMaxSteal];
      while (!go.load(std::memory_order_acquire)) {
      }
      for (;;) {
        const std::size_t got = dq.steal_half(out, WorkDeque::kMaxSteal);
        if (got == 0) {
          if (dq.empty()) break;
          continue;
        }
        for (std::size_t i = 0; i < got; ++i) {
          static_cast<NopTask*>(out[i])->claims.fetch_add(
              1, std::memory_order_relaxed);
        }
      }
    };
    std::thread t1(thief), t2(thief), t3(thief);
    go.store(true, std::memory_order_release);
    while (ForkTask* popped = dq.pop()) {
      static_cast<NopTask*>(popped)->claims.fetch_add(
          1, std::memory_order_relaxed);
    }
    t1.join();
    t2.join();
    t3.join();
    std::size_t total = 0;
    for (auto& t : tasks) {
      ASSERT_EQ(t.claims.load(), 1) << "round " << round;
      total += static_cast<std::size_t>(t.claims.load());
    }
    ASSERT_EQ(total, kTasks);
  }
}

TEST(Scheduler, SpmdBarrierPathSeesEveryStepWrite) {
  // run() is the barrier-phased SPMD path the hand-written substrates
  // use beside the fork-join loops.
  Executor ex(8);
  std::vector<int> stage(8, 0);
  ex.run([&](int tid) {
    stage[static_cast<std::size_t>(tid)] = 1;
    ex.barrier().wait();
    // After the barrier every participant must see all stage-1 writes.
    int sum = 0;
    for (const int s : stage) sum += s;
    if (sum != 8) stage[static_cast<std::size_t>(tid)] = -1000;
  });
  for (const int s : stage) EXPECT_EQ(s, 1);
}

TEST(Scheduler, WorkerIdStaysInRangeAndStable) {
  Executor ex(12);
  std::atomic<bool> bad{false};
  ex.parallel_for(0, 10000, 16, [&](std::size_t) {
    const int w = ex.worker_id();
    if (w < 0 || w >= ex.threads()) bad.store(true);
  });
  EXPECT_FALSE(bad.load());
  EXPECT_EQ(ex.worker_id(), 0);  // outside any region
}

}  // namespace
}  // namespace parbcc
