#pragma once

#include <algorithm>
#include <cstddef>
#include <span>

#include "util/thread_pool.hpp"

/// \file concat.hpp
/// Parallel concatenation of per-thread buffers.
///
/// Frontier-style loops (BFS expansion, level sweeps, certificate
/// forests) let each thread collect discoveries into a private growing
/// buffer and then glue the buffers into one dense array.  Doing the
/// glue with a serial copy loop re-serializes the very step the
/// expansion parallelized: at a wide BFS level the concatenation moves
/// as many bytes as the expansion wrote.  Here the buffer sizes are
/// prefix-summed into disjoint destination offsets and every thread
/// scatters its own buffer — O(total/p) per thread, no overlap, no
/// atomics.  A total that fits in one grain is copied on the calling
/// thread instead: a high-diameter BFS runs one round per level with a
/// handful of vertices each, and forking p workers per round would
/// cost more than the whole traversal.

namespace parbcc {

/// Totals up to this many elements are concatenated serially.
inline constexpr std::size_t kConcatSerialCutoff = 2048;

/// Concatenate `ex.threads()` per-thread buffers into `dst` in tid
/// order.  `buf_of(tid)` returns a container with contiguous
/// `begin()/end()/size()` (e.g. std::vector).  `offset` is caller
/// scratch of at least threads()+1 elements, so round-based loops can
/// allocate it once; on return offset[t] is buffer t's start position.
/// Returns the total number of elements written.
template <class T, class BufOf>
std::size_t concat_thread_buffers(Executor& ex, BufOf&& buf_of,
                                  std::span<std::size_t> offset, T* dst) {
  const int p = ex.threads();
  // p is tiny, so the offsets are scanned serially; the copies are
  // what matters and they run one-buffer-per-thread below.
  std::size_t total = 0;
  for (int t = 0; t < p; ++t) {
    offset[static_cast<std::size_t>(t)] = total;
    total += buf_of(t).size();
  }
  const auto copy = [&](int tid) {
    const auto& buf = buf_of(tid);
    std::copy(buf.begin(), buf.end(),
              dst + offset[static_cast<std::size_t>(tid)]);
  };
  if (p == 1 || total <= kConcatSerialCutoff) {
    for (int t = 0; t < p; ++t) copy(t);
  } else {
    ex.run(copy);
  }
  return total;
}

}  // namespace parbcc
