#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <utility>

#include "util/thread_pool.hpp"
#include "util/types.hpp"

/// \file concurrent_union_find.hpp
/// Lock-free disjoint-set forest over a caller-owned parent array —
/// the hooking structure behind connected_components (components.hpp),
/// FastBCC's skeleton connectivity (core/fast_bcc.cpp, step 3) and the
/// paper's fused aux-graph pipeline (paper/aux_graph.hpp, kFused).
///
/// Scheme: union-by-minimum-id with CAS-arbitrated root hooking and
/// path-halving finds (the "simple" concurrent algorithm of
/// Jayanti-Tarjan, specialised to deterministic min-id priority
/// instead of random priorities).  Invariants:
///
///  - parent[v] <= v at all times: a hook installs parent[b] = a with
///    a < b, and halving replaces a parent with a (smaller or equal)
///    grandparent, so the parent digraph is acyclic by construction.
///  - Hooks CAS on a *root* slot (expected parent[b] == b), so a root
///    is captured by exactly one winner; losers re-run find over the
///    merged forest and retry.
///  - Halving CASes parent[v] from the exact parent it read to that
///    parent's parent — both ancestors of v — so a concurrent lower
///    hook is never overwritten with a stale pointer.
///
/// Because every hook strictly decreases the root id, the quiescent
/// fixpoint is schedule-independent: each tree's root is the minimum
/// id of its component, which is connected_components's label
/// contract.  Callers separate the hook phase from the read phase with
/// an Executor barrier (any parallel_for boundary); within a phase all
/// accesses go through relaxed atomic_ref, so the structure is safe
/// under ThreadSanitizer at full SPMD width.
///
/// Telemetry: unite/find take an accumulator for parent-chain steps
/// traversed, and unite returns whether it performed the hook — the
/// fused pipeline sums these per thread into the `aux_hooks` /
/// `aux_find_depth` trace counters.

namespace parbcc {

class ConcurrentUnionFind {
 public:
  /// Wrap a parent array; call init (or fill parent[v] = v) before use.
  explicit ConcurrentUnionFind(std::span<vid> parent) : parent_(parent) {}

  /// parent[v] = v for all v, in parallel.
  static void init(Executor& ex, std::span<vid> parent) {
    ex.parallel_for(parent.size(),
                    [&](std::size_t v) { parent[v] = static_cast<vid>(v); });
  }

  /// Current root of v's tree, halving the path as it walks.  `steps`
  /// accumulates the number of parent links traversed.
  vid find(vid v, std::uint64_t& steps) const {
    for (;;) {
      const vid p = load(v);
      if (p == v) return v;
      const vid gp = load(p);
      ++steps;
      if (gp == p) return p;
      // Halve: re-point v at its grandparent.  CAS from the exact
      // parent read keeps the invariant that we only ever install
      // ancestors; on failure someone else already lowered it.
      vid expected = p;
      std::atomic_ref(parent_[v]).compare_exchange_weak(
          expected, gp, std::memory_order_relaxed);
      v = gp;
      ++steps;
    }
  }

  /// Merge the sets of a and b; returns true iff this call performed
  /// the hook (false when they were already connected).  The winning
  /// hook always points the larger root at the smaller one.
  bool unite(vid a, vid b, std::uint64_t& steps) const {
    for (;;) {
      a = find(a, steps);
      b = find(b, steps);
      if (a == b) return false;
      if (a > b) std::swap(a, b);
      vid expected = b;
      if (std::atomic_ref(parent_[b]).compare_exchange_strong(
              expected, a, std::memory_order_relaxed)) {
        return true;
      }
      // Lost the race for root b: rerun find over the merged forest.
    }
  }

  /// Quiescent read: parent[v] = find(v) for all v, leaving a star
  /// forest whose roots are the component minima.  Only valid after
  /// all unite calls have been barrier-separated from this call.
  void flatten(Executor& ex) const {
    ex.parallel_for(parent_.size(), [&](std::size_t v) {
      std::uint64_t steps = 0;
      const vid r = find(static_cast<vid>(v), steps);
      std::atomic_ref(parent_[v]).store(r, std::memory_order_relaxed);
    });
  }

 private:
  vid load(vid v) const {
    return std::atomic_ref(parent_[v]).load(std::memory_order_relaxed);
  }

  std::span<vid> parent_;
};

}  // namespace parbcc
