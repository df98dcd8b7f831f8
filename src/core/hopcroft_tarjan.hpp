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
/// edges; self-loops are rejected upstream by the public API.

namespace parbcc {

/// Label the edges of `g` with biconnected component ids.
/// `csr` must be the adjacency of `g`.  Fills edge_component and
/// num_components only; cut info is annotate_cut_info's job.
/// `trace`, when given, receives a "dfs" span — the sequential
/// baseline's slice of a trace artifact.
BccResult hopcroft_tarjan_bcc(const EdgeList& g, const Csr& csr,
                              Trace* trace = nullptr);

}  // namespace parbcc
