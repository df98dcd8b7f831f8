#include <stdexcept>

#include "connectivity/shiloach_vishkin.hpp"
#include "paper/euler_tour.hpp"
#include "paper/sv_tree.hpp"
#include "paper/tv_core.hpp"
#include "util/trace.hpp"

namespace parbcc {

BccResult tv_smp_bcc(Executor& ex, Workspace& ws, const EdgeList& g,
                     const paper::PaperOptions& opt, vid root, Trace& tr) {
  BccResult result;

  // Step 1 (Spanning-tree): Shiloach-Vishkin graft-and-shortcut.
  SpanningForest forest;
  {
    TraceSpan span(tr, steps::kSpanningTree);
    forest = sv_spanning_forest(ex, ws, g.n, g.edges, SvMode::kAuto);
    tr.counter("sv_rounds", static_cast<double>(forest.rounds));
  }
  if (forest.num_components != 1) {
    throw std::invalid_argument("tv_smp_bcc: graph must be connected");
  }

  // Steps 2+3 (Euler-tour, Root-tree): circuit by arc sorting, rooting
  // by list ranking.  The pipeline opens its own step spans.
  const RootedSpanningTree tree = root_tree_via_euler_tour(
      ex, ws, g.n, g.edges, forest.tree_edges, root, opt.ranker,
      opt.arc_sort, nullptr, &tr);

  // Steps 4-6 with the sparse-table low/high back-end.
  std::vector<vid> owner;
  {
    TraceSpan span(tr, "tree_owner");
    owner = make_tree_owner(ex, g.edges.size(), tree);
  }
  result.edge_component =
      tv_label_edges(ex, ws, g.edges, tree, owner, LowHighMethod::kRmq,
                     nullptr, nullptr, SvMode::kAuto, opt.aux_mode, nullptr,
                     &tr);

  {
    TraceSpan span(tr, "normalize");
    result.num_components = normalize_labels(result.edge_component);
  }
  return result;
}

}  // namespace parbcc
