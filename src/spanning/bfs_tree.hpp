#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"
#include "util/types.hpp"
#include "util/workspace.hpp"

/// \file bfs_tree.hpp
/// Parallel direction-optimizing breadth-first-search tree.
///
/// TV-filter (paper Alg. 2, step 1) requires T to be a *BFS* tree:
/// Lemma 1 — no ancestral relationship between the endpoints of a
/// forest edge of G - T — holds only because BFS trees have no
/// intra-tree edges spanning more than one level.  Level-synchronous
/// expansion guarantees exact BFS levels: a vertex's parent is always
/// on the previous level.
///
/// Each level is expanded in one of two ways:
///  - top-down (sparse): threads scan a dense array of frontier
///    vertices and claim undiscovered neighbours with a CAS — O(sum of
///    frontier degrees) inspections;
///  - bottom-up (dense): threads scan the *undiscovered* vertices and
///    stop at the first neighbour found in a frontier bitmap — on the
///    wide middle levels of a low-diameter graph most vertices stop
///    after one or two probes, so the level costs far fewer
///    inspections than its degree sum.
/// The hybrid mode switches with Beamer's alpha/beta heuristic: go
/// dense when the frontier's unexplored-edge estimate passes
/// m_unexplored / alpha (and the frontier itself is at least n / beta
/// vertices — smaller frontiers would bounce straight back), back to
/// sparse when the frontier shrinks below n / beta.  Frontier bitmaps are Workspace words; the sparse
/// next-frontier is gathered by a prefix-summed parallel scatter, not
/// a serial concatenation.
///
/// Runs in O(d) rounds, which is the `O(d + log n)` term in Alg. 2's
/// complexity and the reason the paper calls out the pathological
/// chain case (see bench_pathological).

namespace parbcc {

/// Frontier expansion policy.  kAuto is the direction-optimizing
/// hybrid; the forced modes exist for the ablation bench and tests
/// (all three produce identical level arrays).
enum class BfsMode {
  kAuto,      // alpha/beta switching between the two step kinds
  kTopDown,   // sparse CAS expansion every level
  kBottomUp,  // dense bitmap sweeps every level
};

struct BfsTree {
  /// parent[v]; parent[r] == r for every root r; kNoVertex if
  /// unreachable.
  std::vector<vid> parent;
  /// parent_edge[v] = edge index of (v, parent[v]); kNoEdge for root
  /// and unreachable vertices.
  std::vector<eid> parent_edge;
  /// BFS depth; kNoVertex for unreachable vertices, 0 for the root.
  std::vector<vid> level;
  vid root = 0;
  /// Vertices reached (== n iff connected).
  vid reached = 0;
  /// Number of BFS levels (eccentricity of root + 1), 0 if n == 0.
  vid num_levels = 0;
  /// Telemetry: arcs inspected across all rounds.  Top-down charges
  /// every neighbour scanned from the frontier (a connected top-down
  /// run inspects exactly 2m); bottom-up charges neighbours probed
  /// until a frontier member is found.  The hybrid's win over
  /// top-down-only is exactly this count shrinking.
  std::uint64_t inspected_edges = 0;
  /// inspected_edges split by the worker slot that scanned each arc
  /// (size == Executor::threads()).  Under kSpmd this is the static
  /// schedule's per-thread work assignment in machine-independent
  /// units — the ablation bench gates load skew on it because wall or
  /// CPU-time profiles are polluted by oversubscription on small
  /// hosts.  Under kWorkSteal it shows where stolen chunks landed.
  std::vector<std::uint64_t> slot_inspected;
  /// Rounds executed per step kind (their sum counts the final empty
  /// round that detects termination).
  vid top_down_rounds = 0;
  vid bottom_up_rounds = 0;
  /// Diameter estimate of the traversed component: the root's
  /// eccentricity (num_levels - 1), a lower bound within a factor 2 of
  /// the true diameter (for a forest, the largest over the roots).
  /// The O(d) round count it measures is the BFS term of a solve.
  vid diameter_estimate = 0;
};

/// Multi-source BFS forest: every vertex in `roots` (distinct) starts
/// at level 0 as its own tree's root, and each other vertex hangs under
/// whichever root's wave claims it first.  With one root per connected
/// component this spans a disconnected graph in max-eccentricity
/// rounds; a single-root tree passes `{&root, 1}`.  `BfsTree::root`
/// reports roots[0].
///
/// `trace`, when given, receives the run's telemetry as counters
/// (bfs_inspected_edges, bfs_top_down_rounds, bfs_bottom_up_rounds,
/// bfs_diameter_estimate) — per-round spans would cost a clock read on
/// pathological (diameter-bound) inputs, so only aggregates are
/// emitted.
BfsTree bfs_tree(Executor& ex, Workspace& ws, const Csr& g,
                 std::span<const vid> roots, BfsMode mode = BfsMode::kAuto,
                 Trace* trace = nullptr);

}  // namespace parbcc
