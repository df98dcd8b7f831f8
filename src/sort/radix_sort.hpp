#pragma once

#include <cstdint>
#include <span>

#include "util/thread_pool.hpp"
#include "util/workspace.hpp"

/// \file radix_sort.hpp
/// Parallel LSD radix sort on 64-bit keys.
///
/// The Euler-tour construction sorts 2(n-1) arcs keyed by
/// (min(u,v), max(u,v)); the keys are dense integers, so a stable
/// counting-based radix sort beats comparison sorting by a wide margin
/// and is the cache-friendly choice the paper's engineering favours.
/// Passes are skipped above the highest set byte of the maximum key.
///
/// Keys and payloads are spans, so a std::vector and a Workspace span
/// sort through the same call; the histogram matrix and ping-pong
/// buffers come from the Workspace.

namespace parbcc {

/// Sort `keys` ascending.
void radix_sort_u64(Executor& ex, Workspace& ws,
                    std::span<std::uint64_t> keys);

/// Sort `keys` ascending, carrying `vals` through the same permutation
/// (stable).  Requires keys.size() == vals.size().
void radix_sort_kv(Executor& ex, Workspace& ws, std::span<std::uint64_t> keys,
                   std::span<std::uint32_t> vals);

/// Same with a 64-bit payload (used by the CSR builder to carry
/// (neighbour, edge-id) records through the by-source sort).
void radix_sort_kv64(Executor& ex, Workspace& ws,
                     std::span<std::uint64_t> keys,
                     std::span<std::uint64_t> vals);

}  // namespace parbcc
