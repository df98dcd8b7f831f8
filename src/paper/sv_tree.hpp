#pragma once

#include <span>
#include <vector>

#include "connectivity/shiloach_vishkin.hpp"
#include "graph/edge_list.hpp"
#include "util/thread_pool.hpp"
#include "util/types.hpp"
#include "util/workspace.hpp"

/// \file sv_tree.hpp
/// Spanning forest from Shiloach-Vishkin graft-and-shortcut, recording
/// hook edges — TV step 1 ("a spanning tree algorithm derived from the
/// Shiloach-Vishkin connected components algorithm").
///
/// Whenever a root is grafted (CAS-arbitrated, hence at most once), the
/// edge that triggered the graft is recorded; the recorded edges form a
/// spanning forest: each successful hook joins two previously separate
/// trees, and the strictly-decreasing label order excludes cycles.
///
/// The SvMode knob selects the convergence scheme (see
/// shiloach_vishkin.hpp).  In kFastSV the graft stays CAS-arbitrated —
/// the witness recording *requires* one winner per root — but it reads
/// stride-2 (grandparent) labels, so hooks land on fresher, smaller
/// roots, and each round ends with a full pointer-jumping loop instead
/// of a single jump.  Both shrink the round count without touching the
/// forest argument: hooks still strictly decrease and still fire
/// exactly once per grafted root, so exactly n - num_components edges
/// are recorded in every mode.

namespace parbcc {

struct SpanningForest {
  /// Indices (into the input edge sequence) of the forest edges;
  /// exactly n - num_components of them.
  std::vector<eid> tree_edges;
  /// Component label per vertex (minimum vertex id of the component).
  std::vector<vid> comp;
  vid num_components = 0;
  /// Graft+shortcut passes until convergence (including the final
  /// no-change pass), for the frontier ablation.
  vid rounds = 0;
};

/// Spanning forest over all edges.
SpanningForest sv_spanning_forest(Executor& ex, Workspace& ws, vid n,
                                  std::span<const Edge> edges,
                                  SvMode mode = SvMode::kAuto);

/// Spanning forest over the subset `subset` (edge indices into
/// `edges`); returned tree_edges are indices into `edges`, not into
/// `subset`.  Lets TV-filter build F over G - T without copying edges.
SpanningForest sv_spanning_forest(Executor& ex, Workspace& ws, vid n,
                                  std::span<const Edge> edges,
                                  std::span<const eid> subset,
                                  SvMode mode = SvMode::kAuto);

}  // namespace parbcc
