#pragma once

#include <span>
#include <vector>

#include "connectivity/shiloach_vishkin.hpp"
#include "core/drivers.hpp"
#include "eulertour/tree_computations.hpp"
#include "graph/edge_list.hpp"
#include "paper/aux_graph.hpp"
#include "paper/lowhigh.hpp"
#include "paper/solve.hpp"
#include "util/thread_pool.hpp"
#include "util/workspace.hpp"

/// \file tv_core.hpp
/// The back half of Tarjan-Vishkin shared by TV-SMP, TV-opt and
/// TV-filter: Low-high, Label-edge (Alg. 1) and Connected-components of
/// the auxiliary graph, parameterized on the low/high aggregation
/// back-end.  The front half (how the rooted spanning tree is obtained)
/// is what distinguishes the three drivers, declared at the end.

namespace parbcc {

enum class LowHighMethod {
  kRmq,        // TV-SMP: preorder-interval queries on a sparse table
  kLevelSweep  // TV-opt / TV-filter: bottom-up level aggregation
};

struct TvCoreTimes {
  double low_high = 0;
  /// In kFused mode the hook sweep (Alg. 1's work) is booked here and
  /// the label-read sweep under connected_components, mirroring the
  /// trace spans the fused kernel opens.
  double label_edge = 0;
  double connected_components = 0;
};

/// tree_owner[e] = child endpoint of tree edge e (kNoVertex for
/// nontree edges), derived from the tree's parent_edge column.
std::vector<vid> make_tree_owner(Executor& ex, std::size_t num_edges,
                                 const RootedSpanningTree& tree);

/// TV steps 4-6 over `edges` with spanning tree `tree`.
/// `children`/`levels` are required for kLevelSweep and ignored for
/// kRmq.  Returns one label per edge; labels are auxiliary-graph root
/// ids in [0, n + #nontree) — canonical as a partition, not as values.
/// `aux_mode` picks the Alg. 1 route: kFused (default) hooks aux
/// pairs into a concurrent union-find as they are generated and reads
/// the labels back in one sweep (`sv_mode` is then unused); with
/// kMaterialized the staged/compacted G' is built and solved with
/// Shiloach-Vishkin under `sv_mode`.  Both routes produce identical
/// labels (the component-minimum aux id), not merely the same
/// partition.  All intermediate arrays (low/high scatter, aux staging
/// or union-find parents, aux component labels) are Workspace
/// scratch.  With a `trace`, the three steps record themselves as the
/// "low_high" / "label_edge" / "connected_components" spans (plus
/// sv_rounds or aux_hooks/aux_find_depth counters), so the caller's
/// StepTimes derive without a stopwatch; `times` remains for callers
/// that want the raw splits (the ablation bench).
std::vector<vid> tv_label_edges(Executor& ex, Workspace& ws,
                                std::span<const Edge> edges,
                                const RootedSpanningTree& tree,
                                std::span<const vid> tree_owner,
                                LowHighMethod method,
                                const ChildrenCsr* children,
                                const LevelStructure* levels,
                                SvMode sv_mode = SvMode::kAuto,
                                AuxMode aux_mode = AuxMode::kFused,
                                TvCoreTimes* times = nullptr,
                                Trace* trace = nullptr);

/// The three TV drivers.  Each assumes a connected input without
/// self-loops (paper::solve arranges both), fills edge_component with
/// contiguous labels and num_components, and records the paper's Fig. 4
/// steps into `tr`.  Scratch comes from `ws`; cut info is the caller's.

/// Direct SMP emulation of Tarjan-Vishkin (paper §3.1): SV spanning
/// tree, sort-built Euler tour, list-ranked rooting, RMQ low/high.
/// Works on the raw edge list; it never needs (or charges) adjacency.
BccResult tv_smp_bcc(Executor& ex, Workspace& ws, const EdgeList& g,
                     const paper::PaperOptions& opt, vid root, Trace& tr);

/// Optimized adaptation (paper §3.2): work-stealing rooted spanning
/// tree (merging Spanning-tree and Root-tree), DFS-order tree
/// computations via level sweeps and prefix sums.
BccResult tv_opt_bcc(Executor& ex, Workspace& ws, const PreparedGraph& pg,
                     const paper::PaperOptions& opt, vid root, Trace& tr);

/// The paper's Alg. 2: BFS tree T, spanning forest F of G - T, TV-opt
/// machinery on T u F (at most 2(n-1) edges), condition-1 labels for
/// the filtered edges.
BccResult tv_filter_bcc(Executor& ex, Workspace& ws, const PreparedGraph& pg,
                        const paper::PaperOptions& opt, vid root, Trace& tr);

}  // namespace parbcc
