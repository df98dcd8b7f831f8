#pragma once

#include <vector>

#include "graph/edge_list.hpp"
#include "util/types.hpp"

/// \file chains.hpp
/// Chain decomposition (Schmidt 2013, "A simple test on 2-vertex- and
/// 2-edge-connectivity") — a certifying, DFS-based characterisation of
/// bridges and cut vertices that shares no code or ideas with either
/// the Tarjan-Vishkin machinery or the Hopcroft-Tarjan low-link
/// computation.  The tests use it as a third independent oracle, cheap
/// enough (O(n + m)) to check every engine at scales the brute-force
/// deletion oracles cannot reach.
///
/// Construction: root a DFS tree; every back edge (u, w) (u the
/// ancestor), taken in DFS order of u, starts a chain consisting of the
/// back edge plus the tree path from w up to the first already-visited
/// vertex.  Then (for simple graphs):
///   - bridges = tree edges on no chain;
///   - a vertex is a cut vertex iff it is the start of a cycle chain
///     other than its component's first chain, or an endpoint of a
///     bridge with degree >= 2.

namespace parbcc {

struct ChainDecomposition {
  vid num_chains = 0;
  /// Chain id per edge; kNoVertex for edges on no chain (bridges).
  std::vector<vid> chain_of_edge;
  /// Per chain: does it close a cycle (start == end)?
  std::vector<std::uint8_t> chain_is_cycle;
  /// Bridge edge ids, ascending.
  std::vector<eid> bridges;
  /// Cut-vertex flags per Schmidt's criteria.
  std::vector<std::uint8_t> is_articulation;
};

/// Requires a simple graph (no self-loops or parallel edges — the
/// cycle-chain criterion misreads two-edge multigraph cycles).
/// Disconnected inputs are handled per component.
ChainDecomposition chain_decomposition(const EdgeList& g);

}  // namespace parbcc
