#pragma once

#include "core/bcc_result.hpp"
#include "graph/csr.hpp"
#include "graph/edge_list.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "util/workspace.hpp"

/// \file drivers.hpp
/// The adjacency cache every adjacency-hungry engine shares, and the
/// library's parallel driver, FastBCC.  (The paper's three TV drivers
/// are in paper/tv_core.hpp.)

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

/// FastBCC (Dong, Wang, Gu & Sun, PPoPP 2023): BFS spanning tree,
/// preorder-interval tagging with subtree low/high sweeps, then one
/// concurrent-union-find pass over the skeleton — non-critical tree
/// edges and cross edges hook, back edges are implied — and each edge
/// is labeled by its deeper endpoint's cluster.  O(n) arena scratch
/// beyond the tree structures; never materializes an auxiliary graph.
/// A disconnected input costs one connected-components pass and a
/// multi-source BFS; its forest hangs under a virtual root n.  Assumes
/// an input without self-loops; fills edge_component with contiguous
/// ids numbered by each block's smallest non-head vertex (the same at
/// every p) and num_components, recording its Fig. 4 steps into `tr`.  With
/// `cut_info` it also fills is_articulation and the ascending bridge
/// list from the clusters in O(n), plus one read-only pass over the
/// edges when some block is a single edge.  All O(n + m)
/// scratch is drawn from (and returned to) `ws`.
BccResult fast_bcc(Executor& ex, Workspace& ws, const PreparedGraph& pg,
                   vid root, bool cut_info, Trace& tr);

}  // namespace parbcc
