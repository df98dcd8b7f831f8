#pragma once

#include <span>
#include <vector>

#include "eulertour/tree_computations.hpp"
#include "graph/edge_list.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"
#include "util/workspace.hpp"

/// \file lowhigh.hpp
/// TV step 4: low(v) / high(v) values.
///
/// low(v) is the smallest preorder number reachable from v's subtree in
/// one hop — the minimum over the subtree's own preorder numbers and
/// the preorder numbers of nontree neighbours of subtree vertices;
/// high(v) is the corresponding maximum.  Computed in two stages:
/// per-vertex local extrema over incident nontree edges (atomic
/// min/max, one sweep over the edge list), then a subtree aggregation.
///
/// Two aggregation back-ends mirror the paper's two pipelines:
///  - kRmq (TV-SMP): scatter local values into preorder order and query
///    each subtree's interval on a sparse table — O(n log n) build.
///  - kLevelSweep (TV-opt): bottom-up min/max along tree levels — O(n).
///
/// The RMQ variant's preorder scatter buffers and the O(n log n) sparse
/// tables themselves are Workspace scratch.

namespace parbcc {

struct LowHigh {
  std::vector<vid> low;   // in preorder-number space (1-based)
  std::vector<vid> high;
};

/// Sparse-table variant.  `tree_owner[e]` is the child endpoint of tree
/// edge e, kNoVertex when e is a nontree edge.  Both variants split
/// their trace into "lh_local" (edge sweep) and "lh_aggregate"
/// (sparse-table build+query / level sweeps).
LowHigh compute_low_high_rmq(Executor& ex, Workspace& ws,
                             std::span<const Edge> edges,
                             const RootedSpanningTree& tree,
                             std::span<const vid> tree_owner,
                             Trace* trace = nullptr);

/// Level-sweep variant; `children`/`levels` come from the TV-opt
/// rooting pipeline.  Aggregation runs in place over the result
/// vectors, so no workspace scratch is needed.
LowHigh compute_low_high_levels(Executor& ex, std::span<const Edge> edges,
                                const RootedSpanningTree& tree,
                                std::span<const vid> tree_owner,
                                const ChildrenCsr& children,
                                const LevelStructure& levels,
                                Trace* trace = nullptr);

}  // namespace parbcc
