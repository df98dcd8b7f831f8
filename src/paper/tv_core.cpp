#include "paper/tv_core.hpp"

#include <cassert>
#include <stdexcept>

#include "paper/aux_graph.hpp"
#include "paper/shiloach_vishkin.hpp"
#include "util/timer.hpp"

namespace parbcc {

std::vector<vid> make_tree_owner(Executor& ex, std::size_t num_edges,
                                 const RootedSpanningTree& tree) {
  std::vector<vid> owner(num_edges, kNoVertex);
  ex.parallel_for(tree.parent.size(), [&](std::size_t v) {
    const eid e = tree.parent_edge[v];
    if (e != kNoEdge) {
      // Each tree edge has exactly one child endpoint, so slots are
      // written at most once.
      owner[e] = static_cast<vid>(v);
    }
  });
  return owner;
}

std::vector<vid> tv_label_edges(Executor& ex, Workspace& ws,
                                std::span<const Edge> edges,
                                const RootedSpanningTree& tree,
                                std::span<const vid> tree_owner,
                                LowHighMethod method,
                                const ChildrenCsr* children,
                                const LevelStructure* levels,
                                SvMode sv_mode, AuxMode aux_mode,
                                TvCoreTimes* times, Trace* trace) {
  Timer timer;

  // Step 4: low/high.
  LowHigh lh;
  {
    TraceSpan span(trace, "low_high");
    switch (method) {
      case LowHighMethod::kRmq:
        lh = compute_low_high_rmq(ex, ws, edges, tree, tree_owner, trace);
        break;
      case LowHighMethod::kLevelSweep:
        if (children == nullptr || levels == nullptr) {
          throw std::invalid_argument(
              "tv_label_edges: level sweep needs children/levels");
        }
        lh = compute_low_high_levels(ex, edges, tree, tree_owner, *children,
                                     *levels, trace);
        break;
    }
  }
  if (times) times->low_high = timer.lap();

  // Steps 5+6 fused: hook aux pairs straight into a concurrent
  // union-find as conditions 1-3 emit them, then read labels back in
  // one sweep.  The kernel opens the label_edge /
  // connected_components spans itself and reports their split.
  if (aux_mode == AuxMode::kFused) {
    FusedAuxStats stats;
    std::vector<vid> labels =
        fused_aux_components(ex, ws, edges, tree, tree_owner, lh, trace,
                             &stats);
    if (times) {
      times->label_edge = stats.label_edge_seconds;
      times->connected_components = stats.connected_components_seconds;
    }
    return labels;
  }

  // Step 5: Label-edge (Alg. 1).
  TraceSpan label_span(trace, "label_edge");
  const AuxGraph aux =
      build_aux_graph(ex, ws, edges, tree, tree_owner, lh, trace);
  label_span.close();
  if (times) times->label_edge = timer.lap();

  // Step 6: connected components of G' via Shiloach-Vishkin, read back
  // through each edge's aux image.  The aux label array is scratch —
  // only its gather through aux_id survives.
  TraceSpan cc_span(trace, "connected_components");
  Workspace::Frame frame(ws);
  std::span<vid> aux_labels = ws.alloc<vid>(aux.num_vertices);
  SvStats sv_stats;
  connected_components_sv(ex, ws, aux.num_vertices, aux.edges, aux_labels,
                          sv_mode, &sv_stats);
  if (trace != nullptr) {
    trace->counter("sv_rounds", static_cast<double>(sv_stats.rounds));
  }
  std::vector<vid> labels(edges.size());
  ex.parallel_for(edges.size(), [&](std::size_t e) {
    labels[e] = aux_labels[aux.aux_id[e]];
  });
  cc_span.close();
  if (times) times->connected_components = timer.lap();
  return labels;
}

}  // namespace parbcc
