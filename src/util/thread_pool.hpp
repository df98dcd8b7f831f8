#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "util/barrier.hpp"
#include "util/types.hpp"
#include "util/work_deque.hpp"

/// \file thread_pool.hpp
/// The execution substrate for every parallel algorithm in parbcc: one
/// persistent pool of p participants serving two scheduling models.
///
/// **SPMD** (the paper's model): `run(f)` executes `f(tid)` on all p
/// participants with the sense-reversing `barrier()` available between
/// steps.  The hand-written barrier-phased substrates (scan, sort,
/// list-ranking, CSR conversion) use this path, and
/// `ExecMode::kSpmd` routes the `parallel_*` loops through it too so
/// the paper-faithful drivers run the printed algorithm:
///
///   Executor ex(p);
///   ex.run([&](int tid) {          // all p threads execute the body
///     ... step 1, partitioned by tid ...
///     ex.barrier().wait();
///     ... step 2 ...
///   });
///
/// **Work-stealing fork-join** (the default): the `parallel_for` /
/// `parallel_blocks` / `parallel_for_dynamic` loops lazily binary-split
/// their range into tasks on per-worker Chase–Lev deques
/// (`work_deque.hpp`); idle workers steal the largest outstanding
/// subrange.  Regions are *nestable*: a `parallel_for` issued from
/// inside a task forks onto the executing worker's own deque, which is
/// what lets a per-vertex edge loop go parallel when one vertex owns a
/// quarter of the graph (the skewed-degree regime flat SPMD chunking
/// cannot balance).  The `grain` knob bounds the smallest task.
///
/// The calling thread participates as slot 0 in both models, so
/// `Executor(1)` runs everything inline with zero threading overhead —
/// the p = 1 data points in the benchmarks measure pure algorithmic
/// work.
namespace parbcc {

/// Scheduling model for the `parallel_*` loops.  `run()` is always
/// SPMD; the mode only selects how loops are decomposed.
enum class ExecMode {
  kWorkSteal,  ///< lazy binary splitting onto Chase–Lev deques (default)
  kSpmd,       ///< static block partition / shared-counter chunks, as printed
};

/// Aggregated scheduler telemetry since the last reset (work-stealing
/// loops only; SPMD loops fork no tasks so they contribute nothing).
struct SchedulerStats {
  std::uint64_t steals = 0;  ///< successful steals across all slots
  std::uint64_t splits = 0;  ///< forks (one binary range split each)
  std::uint64_t tasks = 0;   ///< task bodies executed (stolen or popped)
  /// Per-slot busy CPU time (CLOCK_THREAD_CPUTIME_ID, so immune to
  /// descheduling under oversubscription) accumulated inside
  /// `parallel_*` loop bodies while `set_busy_accounting(true)`.
  /// Index = worker slot.  Empty unless accounting was enabled.
  std::vector<std::uint64_t> busy_ns;
};

class Executor {
 public:
  /// Create a pool that runs parallel regions with `threads`
  /// participants (the caller plus `threads - 1` persistent workers).
  explicit Executor(int threads);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Number of participants (== worker slots).
  int threads() const { return threads_; }

  /// Scheduling model used by the `parallel_*` loops.
  ExecMode mode() const { return mode_.load(std::memory_order_relaxed); }

  /// Select the loop scheduling model.  Call between regions only; it
  /// holds for every later solve on this executor (set kSpmd for the
  /// paper's static schedule).
  void set_mode(ExecMode m) { mode_.store(m, std::memory_order_relaxed); }

  /// The barrier shared by all participants of the current run().
  /// Only meaningful inside the body passed to run().
  Barrier& barrier() { return barrier_; }

  /// Execute `f(tid)` on every participant and wait for all of them.
  /// Not reentrant: the body must not call run() on the same Executor,
  /// and fork-join tasks must never call run() (the workers are busy
  /// stealing).  If any participant throws, one of the exceptions is
  /// rethrown on the caller after every participant has finished.  The
  /// body must not throw across a barrier it still owes other
  /// participants — partition work so throwing regions need no barrier.
  void run(const std::function<void(int)>& f);

  /// Slot of the worker executing the current task / SPMD body, in
  /// [0, threads()).  Returns 0 outside any parallel region.  Inside a
  /// work-stealing region each slot executes serially, so indexing
  /// per-slot scratch by worker_id() is race-free even when nested
  /// splitting moves a vertex's edge loop across workers.
  int worker_id() const {
    return (tls_executor_ == this && tls_slot_ >= 0) ? tls_slot_ : 0;
  }

  /// Half-open block of [0, n) owned by `tid` out of `p` under the
  /// balanced static partition used throughout the library.  The
  /// products are taken in 128-bit so the exact floor(n*t/p) cut
  /// points survive n close to SIZE_MAX (n * tid wraps 64-bit for
  /// n > SIZE_MAX / p).
  static std::pair<std::size_t, std::size_t> block_range(std::size_t n, int p,
                                                         int tid) {
    using u128 = unsigned __int128;
    const std::size_t begin = static_cast<std::size_t>(
        static_cast<u128>(n) * static_cast<unsigned>(tid) /
        static_cast<unsigned>(p));
    const std::size_t end = static_cast<std::size_t>(
        static_cast<u128>(n) * (static_cast<unsigned>(tid) + 1) /
        static_cast<unsigned>(p));
    return {begin, end};
  }

  /// Default task granularity for an n-iteration loop: coarse enough
  /// to amortize the fork (~8 tasks per worker), capped above so a
  /// huge loop still yields enough tasks to steal, and floored at 64
  /// iterations so small loops (per-level BFS rounds, short zero
  /// fills) don't shatter into single-index tasks whose fork/join
  /// handshakes dwarf the bodies.  Loops with heavy per-index bodies
  /// that want finer tasks pass an explicit grain instead.
  std::size_t auto_grain(std::size_t n) const {
    const std::size_t per =
        n / (8 * static_cast<std::size_t>(threads_) + 1);
    return std::max<std::size_t>(64, std::min<std::size_t>(2048, per));
  }

  /// Parallel loop: `f(i)` for each i in [0, n).  Work-stealing mode
  /// lazily splits the range at auto_grain(); kSpmd uses the static
  /// block partition.
  template <class F>
  void parallel_for(std::size_t n, F&& f) {
    if (threads_ == 1 || n < 2) {
      for (std::size_t i = 0; i < n; ++i) f(i);
      return;
    }
    if (mode() == ExecMode::kSpmd) {
      run([&](int tid) {
        auto [begin, end] = block_range(n, threads_, tid);
        BusyScope busy(this, tid);
        for (std::size_t i = begin; i < end; ++i) f(i);
      });
      return;
    }
    ws_loop(0, n, auto_grain(n), f);
  }

  /// Parallel loop over [lo, hi) with an explicit `grain`: the lazy
  /// splitter never creates a task smaller than `grain` iterations.
  /// This is the nested-region entry point — legal from inside another
  /// parallel loop's body, where it forks onto the executing worker's
  /// own deque (per-vertex edge loops in the skewed hot paths).  In
  /// kSpmd mode (or on a 1-thread pool) it degrades to a serial loop
  /// when nested and a static partition at top level.
  template <class F>
  void parallel_for(std::size_t lo, std::size_t hi, std::size_t grain,
                    F&& f) {
    if (hi <= lo) return;
    const std::size_t n = hi - lo;
    if (grain == 0) grain = 1;
    if (threads_ == 1 || n <= grain) {
      for (std::size_t i = lo; i < hi; ++i) f(i);
      return;
    }
    if (mode() == ExecMode::kSpmd) {
      if (tls_executor_ == this && tls_slot_ > 0) {
        // Nested inside an SPMD participant: stay serial, the outer
        // static partition already owns this thread.
        for (std::size_t i = lo; i < hi; ++i) f(i);
        return;
      }
      run([&](int tid) {
        auto [begin, end] = block_range(n, threads_, tid);
        BusyScope busy(this, tid);
        for (std::size_t i = lo + begin; i < lo + end; ++i) f(i);
      });
      return;
    }
    ws_loop(lo, hi, grain, f);
  }

  /// Statically partitioned loop handing each participant its whole
  /// block: exactly threads() invocations of `f(tid, begin, end)`,
  /// distinct tid each, empty blocks included.  Use when per-thread
  /// setup matters.  Work-stealing mode forks exactly p block tasks
  /// (tid = block index) so idle workers can steal a straggler block,
  /// preserving the exactly-once-per-tid contract the per-tid scratch
  /// at the call sites depends on.
  template <class F>
  void parallel_blocks(std::size_t n, F&& f) {
    if (threads_ == 1) {
      f(0, std::size_t{0}, n);
      return;
    }
    if (mode() == ExecMode::kSpmd) {
      run([&](int tid) {
        auto [begin, end] = block_range(n, threads_, tid);
        BusyScope busy(this, tid);
        f(tid, begin, end);
      });
      return;
    }
    const std::size_t p = static_cast<std::size_t>(threads_);
    ws_loop(0, p, 1, [&](std::size_t t) {
      auto [begin, end] = block_range(n, threads_, static_cast<int>(t));
      f(static_cast<int>(t), begin, end);
    });
  }

  /// Dynamically scheduled loop over chunks of `grain` indices; use for
  /// irregular per-index work (e.g. vertices with skewed degrees).  In
  /// work-stealing mode this is the same lazy splitter as
  /// parallel_for(lo, hi, grain, f) — stealing subsumes the shared
  /// counter; kSpmd keeps the printed atomic-counter loop.
  template <class F>
  void parallel_for_dynamic(std::size_t n, std::size_t grain, F&& f) {
    if (threads_ == 1 || n < 2) {
      for (std::size_t i = 0; i < n; ++i) f(i);
      return;
    }
    if (grain == 0) grain = 1;
    // Cap the grain at n: the shared counter advances by `grain` once
    // per claim, and an oversized grain could wrap it past SIZE_MAX,
    // handing out bogus chunk starts (duplicated or skipped indices).
    if (grain > n) grain = n;
    if (mode() == ExecMode::kWorkSteal) {
      ws_loop(0, n, grain, f);
      return;
    }
    std::atomic<std::size_t> next{0};
    run([&](int tid) {
      BusyScope busy(this, tid);
      for (;;) {
        const std::size_t begin =
            next.fetch_add(grain, std::memory_order_relaxed);
        if (begin >= n) break;
        // Clamp via the distance to n — `begin + grain` itself could
        // overflow, yielding end < begin and a silently empty chunk.
        const std::size_t end = begin + std::min(grain, n - begin);
        for (std::size_t i = begin; i < end; ++i) f(i);
      }
    });
  }

  /// Enable per-slot busy-CPU accounting inside `parallel_*` bodies
  /// (both modes).  Off by default: each leaf pays two clock_gettime
  /// calls when on.  The scheduler-ablation bench uses the resulting
  /// per-slot busy profile as its machine-independent imbalance metric.
  void set_busy_accounting(bool on) {
    busy_accounting_.store(on, std::memory_order_relaxed);
  }

  /// Snapshot of steal/split/task counters (and busy profile, if
  /// accounting is on) accumulated since the last reset.  Call between
  /// regions.
  SchedulerStats scheduler_stats() const;

  /// Zero the scheduler counters and busy profile.
  void reset_scheduler_stats();

 private:
  struct alignas(kCacheLine) WorkerState {
    WorkDeque deque;
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> splits{0};
    std::atomic<std::uint64_t> tasks{0};
    std::atomic<std::uint64_t> busy_ns{0};
  };

  /// Accumulates CLOCK_THREAD_CPUTIME_ID across a loop-body scope into
  /// the slot's busy counter when accounting is enabled.  Thread CPU
  /// time (not wall time) so a 12-on-1-core oversubscribed run still
  /// reports what each worker actually executed.
  class BusyScope {
   public:
    BusyScope(Executor* ex, int slot)
        : ex_(ex),
          slot_(slot),
          on_(ex->busy_accounting_.load(std::memory_order_relaxed)) {
      if (on_) start_ = thread_cpu_ns();
    }
    ~BusyScope() {
      if (on_) {
        ex_->state_[static_cast<std::size_t>(slot_)]->busy_ns.fetch_add(
            thread_cpu_ns() - start_, std::memory_order_relaxed);
      }
    }

   private:
    Executor* ex_;
    int slot_;
    bool on_;
    std::uint64_t start_ = 0;
  };

  /// Opens a top-level fork-join region: claims slot 0 for the calling
  /// (orchestrator) thread and flips workers from cv-wait into their
  /// steal loops.  Destructor closes the region after the root range is
  /// fully joined.
  class RegionScope {
   public:
    explicit RegionScope(Executor* ex) : ex_(ex) {
      tls_executor_ = ex;
      tls_slot_ = 0;
      {
        std::lock_guard<std::mutex> lock(ex_->mu_);
        ex_->fj_active_.store(true, std::memory_order_relaxed);
      }
      ex_->cv_.notify_all();
    }
    ~RegionScope() {
      ex_->fj_active_.store(false, std::memory_order_release);
      tls_executor_ = nullptr;
      tls_slot_ = -1;
    }

   private:
    Executor* ex_;
  };

  /// Range task for the lazy binary splitter: a stolen right half
  /// re-enters ws_range on the thief with its own lazy splitting.
  template <class F>
  struct RangeTask final : ForkTask {
    Executor* ex;
    const F* f;
    std::size_t lo, hi, grain;
    void run_task() override { ex->ws_range(lo, hi, grain, *f); }
  };

  /// Work-stealing loop entry: opens a region if called from the
  /// orchestrator, or forks in place if already inside one (nesting).
  template <class F>
  void ws_loop(std::size_t lo, std::size_t hi, std::size_t grain,
               const F& f) {
    if (tls_executor_ == this && tls_slot_ >= 0) {
      ws_range(lo, hi, grain, f);  // nested region: same deque
      return;
    }
    RegionScope region(this);
    ws_range(lo, hi, grain, f);
  }

  /// Lazy binary splitting: fork the right half (largest-first in the
  /// deque, so thieves take the biggest piece), recurse into the left,
  /// join.  A full deque runs the task inline — graceful serial
  /// degradation instead of blocking.
  template <class F>
  void ws_range(std::size_t lo, std::size_t hi, std::size_t grain,
                const F& f) {
    WorkerState& me = *state_[static_cast<std::size_t>(tls_slot_)];
    while (hi - lo > grain) {
      const std::size_t mid = lo + (hi - lo) / 2;
      RangeTask<F> right;
      right.ex = this;
      right.f = &f;
      right.lo = mid;
      right.hi = hi;
      right.grain = grain;
      if (!me.deque.push(&right)) break;  // full: finish [lo, hi) inline
      me.splits.fetch_add(1, std::memory_order_relaxed);
      try {
        ws_range(lo, mid, grain, f);
      } catch (...) {
        // The forked half may already be stolen; it must finish before
        // this frame (which owns it) unwinds.
        join_task(&right, me);
        throw;
      }
      join_task(&right, me);
      return;
    }
    BusyScope busy(this, tls_slot_);
    for (std::size_t i = lo; i < hi; ++i) f(i);
  }

  void run_task_body(ForkTask* t, WorkerState& me);
  void join_task(ForkTask* t, WorkerState& me);
  bool try_steal_once(WorkerState& me);
  void steal_loop(WorkerState& me);
  void worker_loop(int tid);

  static std::uint64_t thread_cpu_ns();

  const int threads_;
  Barrier barrier_;
  std::atomic<ExecMode> mode_{ExecMode::kWorkSteal};

  std::vector<std::unique_ptr<WorkerState>> state_;
  std::atomic<bool> fj_active_{false};
  std::atomic<bool> busy_accounting_{false};

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  const std::function<void(int)>* job_ = nullptr;
  std::uint64_t epoch_ = 0;
  bool stop_ = false;

  std::atomic<int> pending_{0};
  std::condition_variable done_cv_;
  std::mutex done_mu_;

  std::mutex error_mu_;
  std::exception_ptr first_error_;

  static thread_local Executor* tls_executor_;
  static thread_local int tls_slot_;
};

}  // namespace parbcc
