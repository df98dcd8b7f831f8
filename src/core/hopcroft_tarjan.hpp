#pragma once

#include "core/bcc_result.hpp"
#include "graph/csr.hpp"
#include "graph/edge_list.hpp"
#include "util/thread_pool.hpp"
#include "util/workspace.hpp"

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
/// `csr` must be the adjacency of `g`.  Fills edge_component,
/// num_components and (optionally) cut info; times.total only.
/// The DFS itself is sequential; `ex`/`ws` only serve the cut-info
/// annotation, so callers that already hold an executor (the
/// dispatcher, benchmarks) don't pay for a throwaway pool.
/// `trace`, when given, receives a "dfs" span (and "cut_info" when
/// annotating) — the sequential baseline's slice of a trace artifact.
BccResult hopcroft_tarjan_bcc(Executor& ex, Workspace& ws, const EdgeList& g,
                              const Csr& csr, bool compute_cut_info = true,
                              Trace* trace = nullptr);

}  // namespace parbcc
