#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/thread_pool.hpp"
#include "util/types.hpp"
#include "util/workspace.hpp"

/// \file list_ranking.hpp
/// List ranking: given a linked list over nodes [0, n) described by a
/// successor array (tail's successor = kNoVertex), compute each node's
/// distance from the head (head gets rank 0).
///
/// This is the primitive TV-SMP leans on to root the spanning tree from
/// its Euler circuit, and — per the paper — a major source of parallel
/// overhead: the traversal order has no spatial locality.  Three
/// implementations are provided so the benchmarks can show exactly
/// that trade-off:
///
///  - `list_rank_sequential`: the pointer-chasing baseline, O(n).
///  - `list_rank_wyllie`: textbook pointer jumping, O(n log n) work.
///  - `list_rank_hj`: Helman-JáJá sparse ruling set, O(n) work; the
///    variant used inside TV-SMP.
///
/// All nodes in [0, n) must lie on the single list starting at `head`.
/// The parallel variants draw their O(n) working arrays from the
/// Workspace.

namespace parbcc {

void list_rank_sequential(const vid* succ, vid* rank, std::size_t n, vid head);

void list_rank_wyllie(Executor& ex, Workspace& ws, const vid* succ, vid* rank,
                      std::size_t n, vid head);

void list_rank_hj(Executor& ex, Workspace& ws, const vid* succ, vid* rank,
                  std::size_t n, vid head,
                  std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

/// Randomized independent-set contraction (Anderson-Miller style):
/// every round each node flips a coin, and nodes whose predecessor
/// flipped the other way splice themselves out (an independent set, so
/// all splices commute); ~n/4 nodes leave per round, O(n) total work,
/// O(log n) rounds.  The removal log replays in reverse to assign
/// ranks.  A third PRAM-era design point next to Wyllie and
/// Helman-JáJá for the primitive benchmarks.
void list_rank_independent_set(Executor& ex, Workspace& ws, const vid* succ,
                               vid* rank, std::size_t n, vid head,
                               std::uint64_t seed = 0x5bd1e995c6b7ULL);

}  // namespace parbcc
