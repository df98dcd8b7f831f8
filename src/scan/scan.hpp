#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "util/padded.hpp"
#include "util/thread_pool.hpp"
#include "util/workspace.hpp"

/// \file scan.hpp
/// Parallel prefix sums and reductions (Helman-JáJá two-pass scheme).
///
/// Prefix sum is the paper's most heavily used primitive: it numbers
/// nontree edges, compacts the staged auxiliary-graph edge list
/// (Alg. 1), and replaces list ranking for tree computations in TV-opt.
/// The blocked two-pass algorithm does 2n work regardless of p and
/// touches each element with unit stride, so it runs at memory
/// bandwidth — exactly the behaviour the paper's SMP studies report.
///
/// Every primitive takes a Workspace for its per-thread block-sum
/// scratch (serial fast paths never touch it).

namespace parbcc {

/// Reduce `in[0, n)` with `op`, seeded by `init`.
/// `op` must be associative; blocks are combined in tid order so
/// non-commutative ops are fine.
template <class T, class Op = std::plus<T>>
T reduce(Executor& ex, Workspace& ws, const T* in, std::size_t n, T init = T{},
         Op op = Op{}) {
  const int p = ex.threads();
  if (p == 1 || n < 1024) {
    T acc = init;
    for (std::size_t i = 0; i < n; ++i) acc = op(acc, in[i]);
    return acc;
  }
  Workspace::Frame frame(ws);
  std::span<Padded<T>> partial = ws.alloc<Padded<T>>(static_cast<std::size_t>(p));
  ex.run([&](int tid) {
    auto [begin, end] = Executor::block_range(n, p, tid);
    T acc{};
    bool first = true;
    for (std::size_t i = begin; i < end; ++i) {
      acc = first ? in[i] : op(acc, in[i]);
      first = false;
    }
    if (!first) partial[static_cast<std::size_t>(tid)].value = acc;
  });
  T acc = init;
  for (int t = 0; t < p; ++t) {
    auto [begin, end] = Executor::block_range(n, p, t);
    if (begin != end) acc = op(acc, partial[static_cast<std::size_t>(t)].value);
  }
  return acc;
}

/// Exclusive prefix sum: out[i] = init + in[0] + ... + in[i-1].
/// Returns the grand total (init + sum of all inputs).
/// `out` may alias `in`.
template <class T>
T exclusive_scan(Executor& ex, Workspace& ws, const T* in, T* out,
                 std::size_t n, T init = T{}) {
  const int p = ex.threads();
  if (p == 1 || n < 1024) {
    T running = init;
    for (std::size_t i = 0; i < n; ++i) {
      const T x = in[i];
      out[i] = running;
      running += x;
    }
    return running;
  }

  Workspace::Frame frame(ws);
  std::span<Padded<T>> block_sum =
      ws.alloc<Padded<T>>(static_cast<std::size_t>(p));
  Padded<T> grand_total;
  ex.run([&](int tid) {
    auto [begin, end] = Executor::block_range(n, p, tid);
    // Pass 1: per-block totals.
    T acc{};
    for (std::size_t i = begin; i < end; ++i) acc += in[i];
    block_sum[static_cast<std::size_t>(tid)].value = acc;
    ex.barrier().wait();
    // Thread 0 turns block totals into block offsets (p is tiny).
    if (tid == 0) {
      T running = init;
      for (int t = 0; t < p; ++t) {
        const T s = block_sum[static_cast<std::size_t>(t)].value;
        block_sum[static_cast<std::size_t>(t)].value = running;
        running += s;
      }
      grand_total.value = running;
    }
    ex.barrier().wait();
    // Pass 2: local exclusive scan shifted by the block offset.
    T running = block_sum[static_cast<std::size_t>(tid)].value;
    for (std::size_t i = begin; i < end; ++i) {
      const T x = in[i];
      out[i] = running;
      running += x;
    }
  });
  return grand_total.value;
}

/// Inclusive prefix sum: out[i] = init + in[0] + ... + in[i].
/// Returns the grand total.  `out` may alias `in`.
template <class T>
T inclusive_scan(Executor& ex, Workspace& ws, const T* in, T* out,
                 std::size_t n, T init = T{}) {
  const int p = ex.threads();
  if (p == 1 || n < 1024) {
    T running = init;
    for (std::size_t i = 0; i < n; ++i) {
      running += in[i];
      out[i] = running;
    }
    return running;
  }

  Workspace::Frame frame(ws);
  std::span<Padded<T>> block_sum =
      ws.alloc<Padded<T>>(static_cast<std::size_t>(p));
  ex.run([&](int tid) {
    auto [begin, end] = Executor::block_range(n, p, tid);
    T acc{};
    for (std::size_t i = begin; i < end; ++i) acc += in[i];
    block_sum[static_cast<std::size_t>(tid)].value = acc;
    ex.barrier().wait();
    if (tid == 0) {
      T running = init;
      for (int t = 0; t < p; ++t) {
        const T s = block_sum[static_cast<std::size_t>(t)].value;
        block_sum[static_cast<std::size_t>(t)].value = running;
        running += s;
      }
    }
    ex.barrier().wait();
    T running = block_sum[static_cast<std::size_t>(tid)].value;
    for (std::size_t i = begin; i < end; ++i) {
      running += in[i];
      out[i] = running;
    }
  });

  return n == 0 ? init : out[n - 1];
}

}  // namespace parbcc
