#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "scan/scan.hpp"
#include "util/padded.hpp"
#include "util/thread_pool.hpp"
#include "util/workspace.hpp"

/// \file compact.hpp
/// Prefix-sum based stream compaction.
///
/// The paper's Alg. 1 stages candidate auxiliary-graph edges in a 3m
/// slot array and "compacts L' into G' using prefix sums"; these
/// helpers implement that order-preserving compaction without any
/// concurrent writes: pass 1 counts survivors per block, an exclusive
/// scan turns counts into destinations, pass 2 writes.

namespace parbcc {

/// Call `emit(dst, i)` for every i in [0, n) with pred(i), where dst is
/// i's rank among selected indices (so output order matches input
/// order).  Returns the number of selected indices.
/// `pred` is evaluated twice per index and must be pure.
template <class Pred, class Emit>
std::size_t pack_into(Executor& ex, Workspace& ws, std::size_t n, Pred pred,
                      Emit emit) {
  const int p = ex.threads();
  if (p == 1 || n < 2048) {
    std::size_t dst = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (pred(i)) emit(dst++, i);
    }
    return dst;
  }

  Workspace::Frame frame(ws);
  std::span<Padded<std::size_t>> offset =
      ws.alloc<Padded<std::size_t>>(static_cast<std::size_t>(p));
  Padded<std::size_t> total;
  ex.run([&](int tid) {
    auto [begin, end] = Executor::block_range(n, p, tid);
    std::size_t count = 0;
    for (std::size_t i = begin; i < end; ++i) count += pred(i) ? 1 : 0;
    offset[static_cast<std::size_t>(tid)].value = count;
    ex.barrier().wait();
    if (tid == 0) {
      std::size_t running = 0;
      for (int t = 0; t < p; ++t) {
        const std::size_t c = offset[static_cast<std::size_t>(t)].value;
        offset[static_cast<std::size_t>(t)].value = running;
        running += c;
      }
      total.value = running;
    }
    ex.barrier().wait();
    std::size_t dst = offset[static_cast<std::size_t>(tid)].value;
    for (std::size_t i = begin; i < end; ++i) {
      if (pred(i)) emit(dst++, i);
    }
  });
  return total.value;
}

/// Pack the selected indices themselves: out = [i : pred(i)], ascending.
template <class Pred>
std::size_t pack_indices(Executor& ex, Workspace& ws, std::size_t n, Pred pred,
                         std::vector<std::uint32_t>& out) {
  // Sizing pass runs inside pack_into; reserve pessimistically only for
  // small inputs to avoid touching memory twice on the big ones.
  out.resize(n);
  const std::size_t count = pack_into(
      ex, ws, n, pred,
      [&](std::size_t dst, std::size_t i) {
        out[dst] = static_cast<std::uint32_t>(i);
      });
  out.resize(count);
  return count;
}

/// pack_indices writing into a workspace span allocated by the caller
/// (in the caller's frame).  `out` must have room for n indices; the
/// return value is how many were written.
template <class Pred>
std::size_t pack_indices_span(Executor& ex, Workspace& ws, std::size_t n,
                              Pred pred, std::span<std::uint32_t> out) {
  return pack_into(ex, ws, n, pred, [&](std::size_t dst, std::size_t i) {
    out[dst] = static_cast<std::uint32_t>(i);
  });
}

}  // namespace parbcc
