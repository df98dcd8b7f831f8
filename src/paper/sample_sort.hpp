#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

#include "util/padded.hpp"
#include "util/thread_pool.hpp"
#include "util/workspace.hpp"

/// \file sample_sort.hpp
/// Parallel sample sort after Helman and JáJá (ALENEX 1999) — the
/// routine the paper uses to pair anti-parallel arcs when building the
/// Euler tour in TV-SMP.
///
/// Structure: sort p blocks locally, pick p-1 splitters from p(p-1)
/// regular samples, partition every block by the splitters with binary
/// search, then each thread assembles and merges one bucket.  All
/// cross-thread placement is computed from a counts matrix with prefix
/// sums, so there are no concurrent writes.
///
/// The sample/counts matrices and the O(n) bucket buffer come from the
/// Workspace.

namespace parbcc {

template <class T, class Cmp = std::less<T>>
void sample_sort(Executor& ex, Workspace& ws, T* data, std::size_t n,
                 Cmp cmp = Cmp{}) {
  const int p = ex.threads();
  if (p == 1 || n < 4096) {
    std::sort(data, data + n, cmp);
    return;
  }

  Workspace::Frame frame(ws);
  const std::size_t np = static_cast<std::size_t>(p);
  std::span<T> samples = ws.alloc<T>(np * (np - 1));
  std::span<T> splitters = ws.alloc<T>(np - 1);
  // counts[t * p + b] = how many of thread t's elements fall in bucket b.
  std::span<std::size_t> counts = ws.alloc<std::size_t>(np * np);
  // dest[t * p + b]   = where thread t's bucket-b piece starts in `buf`.
  std::span<std::size_t> dest = ws.alloc<std::size_t>(np * np);
  std::span<std::size_t> bucket_begin = ws.alloc<std::size_t>(np + 1);
  std::span<T> buf = ws.alloc<T>(n);

  ex.run([&](int tid) {
    const std::size_t ut = static_cast<std::size_t>(tid);
    auto [begin, end] = Executor::block_range(n, p, tid);
    // Step 1: local sort.
    std::sort(data + begin, data + end, cmp);
    // Step 2: p-1 regular samples per block.  Blocks are non-empty for
    // n >= 4096, but an empty block would contribute default-valued
    // fillers, which merely skews splitters without breaking anything.
    const std::size_t len = end - begin;
    for (std::size_t k = 0; k + 1 < np; ++k) {
      samples[ut * (np - 1) + k] =
          len == 0 ? T{} : data[begin + (k + 1) * len / np];
    }
    ex.barrier().wait();

    // Step 3: thread 0 selects splitters from the sorted sample.
    if (tid == 0) {
      std::sort(samples.begin(), samples.end(), cmp);
      for (std::size_t k = 0; k + 1 < np; ++k) {
        splitters[k] = samples[(k + 1) * (np - 1)];
      }
    }
    ex.barrier().wait();

    // Step 4: partition this block by the splitters.
    std::size_t prev = begin;
    for (std::size_t b = 0; b + 1 < np; ++b) {
      const T* it = std::upper_bound(data + prev, data + end, splitters[b], cmp);
      const std::size_t cut = static_cast<std::size_t>(it - data);
      counts[ut * np + b] = cut - prev;
      prev = cut;
    }
    counts[ut * np + (np - 1)] = end - prev;
    ex.barrier().wait();

    // Step 5: thread 0 lays out buckets (p^2 entries; serial is fine).
    if (tid == 0) {
      std::size_t running = 0;
      for (std::size_t b = 0; b < np; ++b) {
        bucket_begin[b] = running;
        for (std::size_t t = 0; t < np; ++t) {
          dest[t * np + b] = running;
          running += counts[t * np + b];
        }
      }
      bucket_begin[np] = running;
    }
    ex.barrier().wait();

    // Step 6: scatter this block's pieces into the bucket buffer.
    std::size_t src = begin;
    for (std::size_t b = 0; b < np; ++b) {
      const std::size_t c = counts[ut * np + b];
      std::copy(data + src, data + src + c,
                buf.begin() + static_cast<std::ptrdiff_t>(dest[ut * np + b]));
      src += c;
    }
    ex.barrier().wait();

    // Step 7: merge bucket `tid`, which is p sorted runs laid head to
    // tail; ln(p) passes of inplace_merge keep it simple and local.
    // The tiny run-boundary lists are per-thread growing state and stay
    // on the heap (the Workspace is single-orchestrator).
    const std::size_t bkt = ut;
    std::vector<std::size_t> run_starts;
    run_starts.reserve(np + 1);
    {
      std::size_t pos = bucket_begin[bkt];
      for (std::size_t t = 0; t < np; ++t) {
        run_starts.push_back(pos);
        pos += counts[t * np + bkt];
      }
      run_starts.push_back(pos);
    }
    while (run_starts.size() > 2) {
      std::vector<std::size_t> next;
      next.reserve(run_starts.size() / 2 + 2);
      std::size_t k = 0;
      for (; k + 2 < run_starts.size(); k += 2) {
        std::inplace_merge(
            buf.begin() + static_cast<std::ptrdiff_t>(run_starts[k]),
            buf.begin() + static_cast<std::ptrdiff_t>(run_starts[k + 1]),
            buf.begin() + static_cast<std::ptrdiff_t>(run_starts[k + 2]), cmp);
        next.push_back(run_starts[k]);
      }
      for (; k < run_starts.size(); ++k) next.push_back(run_starts[k]);
      run_starts = std::move(next);
    }
    ex.barrier().wait();

    // Step 8: copy the merged bucket back in place.
    std::copy(buf.begin() + static_cast<std::ptrdiff_t>(bucket_begin[bkt]),
              buf.begin() + static_cast<std::ptrdiff_t>(bucket_begin[bkt + 1]),
              data + bucket_begin[bkt]);
  });
}

}  // namespace parbcc
