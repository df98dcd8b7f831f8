#pragma once

#include "core/bcc_result.hpp"
#include "graph/csr.hpp"
#include "graph/edge_list.hpp"
#include "util/trace.hpp"

/// \file hopcroft_tarjan.hpp
/// Sequential biconnected components by depth-first search with an
/// auxiliary edge stack (Tarjan 1972) — the linear-time baseline every
/// speedup in the paper is measured against.
///
/// Iterative (explicit DFS stack), so million-vertex chains do not
/// overflow the call stack.  Handles disconnected inputs and parallel
/// edges (the tree edge up is skipped by id, so a parallel copy is a
/// back edge); self-loops are split off upstream by the public API,
/// and any that reach the DFS get their own ids and are never cut
/// elements.

namespace parbcc {

/// Label the edges of `g` with contiguous biconnected component ids.
/// `csr` must be the adjacency of `g`.  Fills edge_component and
/// num_components; with `cut_info` also is_articulation and the
/// ascending bridge list, set inside the DFS (a non-root parent that
/// pops a block is a cut vertex, the root is one when two blocks pop
/// at it, a block that pops one edge is a bridge).  Callers that only
/// read the labels pass false and pay nothing for them.  `trace`, when
/// given, receives a "dfs" span — the sequential baseline's slice of a
/// trace artifact.
BccResult hopcroft_tarjan_bcc(const EdgeList& g, const Csr& csr,
                              bool cut_info, Trace* trace = nullptr);

}  // namespace parbcc
