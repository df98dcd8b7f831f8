#pragma once

#include "core/bcc_result.hpp"
#include "graph/csr.hpp"
#include "graph/edge_list.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "util/workspace.hpp"

/// \file drivers.hpp
/// The four parallel biconnected-components drivers.  Each assumes an
/// input without self-loops, and the three TV drivers a connected one
/// (enforced/arranged by the public dispatcher in bcc.hpp; FastBCC
/// spans disconnected inputs itself).  Each fills edge_component with
/// contiguous labels, num_components, and the per-step times of the
/// paper's Fig. 4.
/// Cut info (articulation points, bridges) is annotated by the caller.
/// Every driver takes the caller's Workspace: all O(n + m) scratch
/// along the pipeline is drawn from (and returned to) that arena.

namespace parbcc {

/// An edge list together with its adjacency structure (CSR), built at
/// most once and shared by every consumer.  The edge-list -> adjacency
/// conversion is the representation-discrepancy cost the paper's §1
/// highlights; it is charged to whoever triggers the build and recorded
/// here so drivers can report it in StepTimes::conversion without ever
/// rebuilding the CSR.  The referenced edge list must outlive the
/// PreparedGraph.
class PreparedGraph {
 public:
  /// Convert `g`, recording the wall-clock conversion cost.  The
  /// builder's staging memory comes from `ws`.
  PreparedGraph(Executor& ex, Workspace& ws, const EdgeList& g) : graph_(&g) {
    Timer timer;
    owned_ = Csr::build(ex, ws, g);
    csr_ = &owned_;
    conversion_seconds_ = timer.seconds();
  }

  /// Adopt a caller-built adjacency (no conversion charged).  `csr`
  /// must be the adjacency of exactly `g`, e.g. from a prior
  /// Csr::build on the same edge list.
  PreparedGraph(const EdgeList& g, const Csr& csr)
      : graph_(&g), csr_(&csr) {}

  PreparedGraph(const PreparedGraph&) = delete;
  PreparedGraph& operator=(const PreparedGraph&) = delete;

  const EdgeList& graph() const { return *graph_; }
  const Csr& csr() const { return *csr_; }
  /// Seconds spent building the CSR (0 when the caller supplied it).
  double conversion_seconds() const { return conversion_seconds_; }
  /// Charge the conversion to nobody: BccContext zeroes this on cache
  /// hits so repeat solves report conversion = 0.
  void waive_conversion_charge() { conversion_seconds_ = 0; }

 private:
  const EdgeList* graph_;
  const Csr* csr_ = nullptr;
  Csr owned_;
  double conversion_seconds_ = 0;
};

/// Direct SMP emulation of Tarjan-Vishkin (paper §3.1): SV spanning
/// tree, sort-built Euler tour, list-ranked rooting, RMQ low/high.
/// Works on the raw edge list; it never needs (or charges) adjacency.
BccResult tv_smp_bcc(Executor& ex, Workspace& ws, const EdgeList& g,
                     const BccOptions& opt);

/// Optimized adaptation (paper §3.2): work-stealing rooted spanning
/// tree (merging Spanning-tree and Root-tree), DFS-order tree
/// computations via level sweeps and prefix sums.
BccResult tv_opt_bcc(Executor& ex, Workspace& ws, const PreparedGraph& pg,
                     const BccOptions& opt);

/// The paper's Alg. 2: BFS tree T, spanning forest F of G - T, TV-opt
/// machinery on T u F (at most 2(n-1) edges), condition-1 labels for
/// the filtered edges.
BccResult tv_filter_bcc(Executor& ex, Workspace& ws, const PreparedGraph& pg,
                        const BccOptions& opt);

/// FastBCC (Dong, Wang, Gu & Sun, PPoPP 2023): BFS spanning tree,
/// preorder-interval tagging with subtree low/high sweeps, then one
/// concurrent-union-find pass over the skeleton — non-critical tree
/// edges and cross edges hook, back edges are implied — and each edge
/// is labeled by its deeper endpoint's cluster.  O(n) arena scratch
/// beyond the tree structures; never materializes an auxiliary graph.
/// A disconnected input costs one SV pass and a multi-source BFS; its
/// forest hangs under a virtual root n.
BccResult fast_bcc(Executor& ex, Workspace& ws, const PreparedGraph& pg,
                   const BccOptions& opt);

}  // namespace parbcc
