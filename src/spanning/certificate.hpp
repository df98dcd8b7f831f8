#pragma once

#include <vector>

#include "graph/edge_list.hpp"
#include "util/thread_pool.hpp"
#include "util/workspace.hpp"

/// \file certificate.hpp
/// Sparse connectivity certificates by successive BFS forests — the
/// principle behind TV-filter's edge filtering, and the batch-dynamic
/// engine's bound on a dense region solve.
///
/// Let F1 be a spanning forest of G, F2 a spanning forest of G - F1,
/// and so on.  Classic results:
///
///  - Nagamochi-Ibaraki / Thurimella: F1 u ... u Fk preserves
///    k-EDGE-connectivity (for any choice of forests), with at most
///    k(n-1) edges.
///  - Cheriyan-Kanevsky-Maheshwari / Thurimella: if each Fi is a
///    *BFS* forest, F1 u ... u Fk also preserves k-VERTEX-connectivity.
///
/// TV-filter (paper Alg. 2 and Theorem 2) is exactly the k = 2 BFS
/// case plus a labeling argument: T u F keeps the whole biconnected
/// component structure, not just the yes/no property.  Its one
/// library caller, BatchDynamicBcc, solves a dense region's k = 2
/// certificate and scatters labels onto the omitted edges.

namespace parbcc {

struct SparseCertificate {
  /// Edge ids of F1 u ... u Fk, grouped by forest.
  std::vector<eid> edges;
  /// forest_offsets[i] .. forest_offsets[i+1] delimit Fi+1 in `edges`.
  std::vector<eid> forest_offsets;
  /// BFS metadata of the first forest F1: exact BFS depth per vertex
  /// (roots 0) and the tree edge to the parent (kNoEdge for roots).
  /// Callers use this to label the edges the certificate omits without
  /// re-traversing: an omitted edge {u, v} closes a cycle with its F1
  /// tree path, so it lies in one biconnected component with the parent
  /// tree edge of its deeper endpoint — and BFS levels across an edge
  /// differ by at most one, so the deeper (or, on a tie, either)
  /// endpoint is never the top vertex of that cycle.  The batch-dynamic
  /// engine's certificate-bounded region solve relies on this scatter
  /// rule.
  std::vector<vid> f1_level;
  std::vector<eid> f1_parent_edge;

  /// Materialize the certificate as its own EdgeList over g's vertices.
  EdgeList subgraph(const EdgeList& g) const {
    EdgeList out;
    out.n = g.n;
    out.edges.reserve(edges.size());
    for (const eid e : edges) out.edges.push_back(g.edges[e]);
    return out;
  }
};

/// k successive *BFS* spanning forests (k-vertex-connectivity
/// certificate).  Forest i is built by BFS restricted to the edges not
/// used by forests 1..i-1, rooted per component.  The adjacency's
/// staging comes from `ws`.  Throws std::invalid_argument when k == 0.
SparseCertificate sparse_certificate_vertex(Executor& ex, Workspace& ws,
                                            const EdgeList& g, unsigned k);

}  // namespace parbcc
