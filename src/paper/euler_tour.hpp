#pragma once

#include <span>
#include <vector>

#include "eulertour/tree_computations.hpp"
#include "graph/edge_list.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"
#include "util/types.hpp"
#include "util/workspace.hpp"

/// \file euler_tour.hpp
/// Classic Euler-tour construction and tree rooting — TV steps 2 and 3
/// as TV-SMP runs them (paper §3.1).
///
/// The circuit is built over the 2(n-1) arcs of the spanning tree: arc
/// 2t is tree_edges[t] traversed u->v and arc 2t+1 is its anti-parallel
/// mate, so twin(a) == a ^ 1.  The paper's implementation discovers the
/// mates by sample-sorting arcs keyed (min, max); `kSampleSort` keeps
/// that cost in the measured pipeline (opt-in, for the paper-fidelity
/// path), while `kCountingSort` — the default — is the cheap bucket
/// scatter.  Both yield valid circuits and identical rooted trees; only
/// the within-group arc order differs.  Rooting then ranks the circuit
/// with a list-ranking algorithm and reads preorder numbers and subtree
/// sizes off the arc ranks.

namespace parbcc {

enum class ListRanker { kSequential, kWyllie, kHelmanJaja };
enum class ArcSort { kSampleSort, kCountingSort };

/// The Euler circuit as a successor list over arc ids [0, 2T).
struct EulerCircuit {
  /// succ[a] = next arc; the circuit is broken at the root so the arc
  /// ending the tour has succ == kNoVertex.
  std::vector<vid> succ;
  /// First arc of the tour (an arc leaving `root`).
  vid head = kNoVertex;
};

/// Build the circuit for the spanning tree given by `tree_edges`
/// (indices into `edges`), rooted/broken at `root`.
/// Requires the tree to span all n vertices (T == n-1 >= 1).
/// `trace`, when given, gets an "arc_sort" sub-span around the mate
/// discovery (the cost the paper's §3.1 pipeline is dominated by).
EulerCircuit build_euler_circuit(Executor& ex, Workspace& ws, vid n,
                                 std::span<const Edge> edges,
                                 std::span<const eid> tree_edges, vid root,
                                 ArcSort sort = ArcSort::kCountingSort,
                                 Trace* trace = nullptr);

/// Wall-clock split of the rooting pipeline, matching the paper's
/// Euler-tour vs Root-tree bars in Fig. 4.
struct EulerTourTimes {
  double circuit = 0;   // arc sort + successor construction
  double rooting = 0;   // list ranking + preorder/size derivation
};

/// Full TV-SMP rooting pipeline: circuit, list ranking, then parent /
/// preorder / subtree size from arc ranks.  With a `trace`, the
/// pipeline opens the paper-step spans itself — "euler_tour" (with the
/// circuit's sub-spans) and "root_tree" (nesting "list_ranking" and
/// "tree_values") — so drivers need no stopwatch around this call.
RootedSpanningTree root_tree_via_euler_tour(
    Executor& ex, Workspace& ws, vid n, std::span<const Edge> edges,
    std::span<const eid> tree_edges, vid root,
    ListRanker ranker = ListRanker::kHelmanJaja,
    ArcSort sort = ArcSort::kCountingSort, EulerTourTimes* times = nullptr,
    Trace* trace = nullptr);

}  // namespace parbcc
