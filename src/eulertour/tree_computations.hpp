#pragma once

#include <span>
#include <vector>

#include "util/thread_pool.hpp"
#include "util/trace.hpp"
#include "util/types.hpp"
#include "util/workspace.hpp"

/// \file tree_computations.hpp
/// Rooted-tree computations without list ranking.
///
/// TV-opt's key engineering change (paper §3.2): once parents are known
/// directly (work-stealing traversal tree), preorder numbers, subtree
/// sizes and the subtree min/max aggregates behind low/high can all be
/// computed with cache-friendly level sweeps and prefix sums instead of
/// ranking the Euler circuit.  Each sweep touches every vertex once via
/// a level-bucketed order, so total work is O(n) with perfect spatial
/// locality inside a level.

namespace parbcc {

/// The rooted spanning tree interface consumed by the Tarjan-Vishkin
/// core, produced by either pipeline (Euler-tour rooting in TV-SMP,
/// level sweeps in TV-opt).
struct RootedSpanningTree {
  vid root = 0;
  /// parent[root] == root.
  std::vector<vid> parent;
  /// Graph edge id of {v, parent[v]}; kNoEdge for the root.
  std::vector<eid> parent_edge;
  /// 1-based DFS preorder number (root gets 1).
  std::vector<vid> pre;
  /// Subtree size (sub[root] == n).
  std::vector<vid> sub;

  vid n() const { return static_cast<vid>(parent.size()); }

  /// Ancestor test in O(1) via the preorder interval.
  bool is_ancestor(vid anc, vid v) const {
    return pre[anc] <= pre[v] && pre[v] < pre[anc] + sub[anc];
  }
};

/// Child adjacency (CSR over the parent array).
struct ChildrenCsr {
  std::vector<eid> offsets;  // n + 1
  std::vector<vid> child;    // n - 1 entries for a tree

  std::span<const vid> children(vid v) const {
    return {child.data() + offsets[v], child.data() + offsets[v + 1]};
  }
};

/// The `trace` parameters open self-named sub-spans
/// ("build_children", "build_levels", "preorder_size") under whatever
/// step span the caller holds — the TV-opt substitute for the Euler
/// tour shows up structured in a trace artifact.
ChildrenCsr build_children(Executor& ex, Workspace& ws,
                           std::span<const vid> parent, vid root,
                           Trace* trace = nullptr);

/// Vertices bucketed by depth, plus the depth array itself.
struct LevelStructure {
  std::vector<vid> depth;          // depth[root] == 0
  std::vector<vid> order;          // vertices sorted by depth
  std::vector<eid> level_offsets;  // num_levels + 1 boundaries into order
  vid num_levels = 0;

  std::span<const vid> level(vid d) const {
    return {order.data() + level_offsets[d],
            order.data() + level_offsets[d + 1]};
  }
};

LevelStructure build_levels(Executor& ex, const ChildrenCsr& children,
                            vid root, Trace* trace = nullptr);

/// Fill `pre` (1-based preorder) and `sub` (subtree sizes) by a
/// bottom-up size sweep followed by a top-down numbering sweep.
void preorder_and_size(Executor& ex, const ChildrenCsr& children,
                       const LevelStructure& levels, vid root,
                       std::vector<vid>& pre, std::vector<vid>& sub,
                       Trace* trace = nullptr);

/// In place: val[v] := min over v's subtree of the initial val values.
void subtree_min(Executor& ex, const ChildrenCsr& children,
                 const LevelStructure& levels, vid* val);

/// In place: val[v] := max over v's subtree of the initial val values.
void subtree_max(Executor& ex, const ChildrenCsr& children,
                 const LevelStructure& levels, vid* val);

}  // namespace parbcc
