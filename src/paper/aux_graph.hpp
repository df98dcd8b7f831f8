#pragma once

#include <span>
#include <vector>

#include "eulertour/tree_computations.hpp"
#include "graph/edge_list.hpp"
#include "paper/lowhigh.hpp"
#include "util/thread_pool.hpp"
#include "util/workspace.hpp"

/// \file aux_graph.hpp
/// TV step 5 (Label-edge): the auxiliary graph G' = (V', E') whose
/// vertices are the edges of G and whose connected components are the
/// biconnected components — the paper's Alg. 1 — in two forms.
///
/// Vertex mapping (paper §2): tree edge (u, p(u)) |-> u; the j-th
/// nontree edge |-> n + j, with j assigned by a prefix sum.
///
/// **Materialized** (`build_aux_graph`, the paper-faithful route):
/// candidate pairs are staged into a 3m-slot array — one m-slot region
/// per R''c condition — and compacted with a prefix sum, so the
/// construction is write-conflict free (EREW), matching Theorem 1.
/// The caller then runs connected components over the compacted edge
/// list.  That is three full passes over edge-sized arrays (zero-fill,
/// stage, compact) before a single component is labeled, plus the CC
/// passes themselves.
///
/// **Fused** (`fused_aux_components`): E' is never materialized.  A
/// lock-free union-find (connectivity/concurrent_union_find.hpp) over
/// the |V'| aux vertices consumes the condition 1-3 pairs *as they are
/// generated* — one sweep over the original edge list hooks every
/// pair — and a second sweep reads each edge's final component label
/// through its aux image.  The 3m staged buffer, its zero-fill and the
/// compaction pass disappear; the only edge-sized scratch is the
/// aux-id map.  The fixpoint label is the component's minimum aux id,
/// identical to the SV contract on the materialized graph, so the two
/// routes agree up to nothing at all — labels match exactly.
///
/// All scratch (staging array, nontree-rank prefix array, union-find
/// parent array) comes from the Workspace under the usual frame
/// discipline; both routes are single-orchestrator (only the
/// Executor-driving thread allocates or opens spans).

namespace parbcc {

/// Which Alg. 1 route the TV core runs (BccOptions::aux_mode).
/// kFused is the default; kMaterialized remains as the paper-faithful
/// reference for fidelity tests and the ablation bench.
enum class AuxMode {
  kMaterialized,
  kFused,
};

struct AuxGraph {
  /// n + (number of nontree edges); ids below n are tree-edge images.
  vid num_vertices = 0;
  /// Compacted E' (endpoints are aux vertex ids).
  std::vector<Edge> edges;
  /// Image of each original edge in V'.
  std::vector<vid> aux_id;
};

/// `tree_owner[e]` = child endpoint if e is a tree edge else kNoVertex;
/// `lh` from compute_low_high_*.  `trace` gets sub-spans for the three
/// stages (aux_vertex_map, aux_stage, aux_compact) plus aux_vertices /
/// aux_edges counters — the size of G' explains the
/// Connected-components bar that follows it.
AuxGraph build_aux_graph(Executor& ex, Workspace& ws,
                         std::span<const Edge> edges,
                         const RootedSpanningTree& tree,
                         std::span<const vid> tree_owner, const LowHigh& lh,
                         Trace* trace = nullptr);

/// Telemetry of one fused run, mirrored into the trace counters.
struct FusedAuxStats {
  /// |V'| = n + #nontree (same count the materialized route reports).
  vid num_vertices = 0;
  /// Successful union-find hooks — the fused stand-in for |E'|: every
  /// generated pair costs one unite, but only spanning ones hook.
  std::uint64_t hooks = 0;
  /// Total parent-chain links traversed across every find, hook and
  /// label sweep included — the fused pipeline's "extra pass" budget.
  std::uint64_t find_depth = 0;
  /// Wall seconds of the two paper-step spans the kernel opens
  /// (label_edge = vertex map + hook sweep, connected_components =
  /// label read-back), so callers fill TvCoreTimes without
  /// double-instrumenting the call.
  double label_edge_seconds = 0;
  double connected_components_seconds = 0;
};

/// Fused Alg. 1 + TV step 6: component label per original edge,
/// without materializing E'.  Opens the paper-step spans itself —
/// "label_edge" (nesting "aux_vertex_map" and "aux_hook") and
/// "connected_components" (nesting "aux_gather") — and emits the
/// aux_vertices / aux_hooks / aux_find_depth counters, so drivers need
/// no stopwatch or span around this call.  Labels are aux-vertex root
/// ids (component minima over V'), exactly what the materialized route
/// + connected_components_sv produces.
std::vector<vid> fused_aux_components(Executor& ex, Workspace& ws,
                                      std::span<const Edge> edges,
                                      const RootedSpanningTree& tree,
                                      std::span<const vid> tree_owner,
                                      const LowHigh& lh,
                                      Trace* trace = nullptr,
                                      FusedAuxStats* stats = nullptr);

}  // namespace parbcc
