#pragma once

#include <vector>

#include "core/bcc_result.hpp"
#include "graph/edge_list.hpp"
#include "util/thread_pool.hpp"

/// \file two_edge_connected.hpp
/// 2-edge-connected components — the bridge-based companion of
/// biconnectivity (the paper's fault-tolerance motivation concerns
/// both: articulation points are router failures, bridges are link
/// failures).
///
/// A 2-edge-connected component is a maximal vertex set where every
/// pair stays connected after any single edge failure; equivalently,
/// the connected components left after deleting all bridges.  Computed
/// here by reusing a biconnectivity result (bridges are the single-edge
/// blocks) plus one connected_components pass over the non-bridge edges.

namespace parbcc {

struct TwoEdgeConnected {
  /// Component label per vertex, contiguous in [0, num_components).
  std::vector<vid> vertex_component;
  vid num_components = 0;
  /// The bridges, as edge ids (same as BccResult::bridges).
  std::vector<eid> bridges;
};

/// Derive the 2-edge-connected components from a finished BCC run
/// (`result` must carry cut info so the bridge list is populated).
TwoEdgeConnected two_edge_connected_components(Executor& ex,
                                               const EdgeList& g,
                                               const BccResult& result);

/// Convenience: run BCC (kAuto) and derive.
TwoEdgeConnected two_edge_connected_components(Executor& ex,
                                               const EdgeList& g);

}  // namespace parbcc
