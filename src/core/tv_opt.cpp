#include <stdexcept>

#include "connectivity/shiloach_vishkin.hpp"
#include "core/drivers.hpp"
#include "core/tv_core.hpp"
#include "graph/csr.hpp"
#include "spanning/traversal_tree.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace parbcc {

BccResult tv_opt_bcc(Executor& ex, Workspace& ws, const PreparedGraph& pg,
                     const BccOptions& opt) {
  const EdgeList& g = pg.graph();
  const Csr& csr = pg.csr();
  BccResult result;
  Trace local_trace(ex.threads());
  Trace& tr = opt.trace != nullptr ? *opt.trace : local_trace;
  const Trace::Mark mark = tr.mark();
  Timer total;
  // The conversion happened before this driver ran (possibly amortized
  // by a cache); book it as an externally measured charge.
  if (pg.conversion_seconds() > 0) {
    tr.charge(steps::kConversion, pg.conversion_seconds());
  }

  // Merged Spanning-tree + Root-tree: the traversal sets parents
  // directly.
  TraversalTree traversal;
  {
    TraceSpan span(tr, steps::kSpanningTree);
    traversal = traversal_spanning_tree(ex, csr, opt.root);
  }
  if (traversal.reached != g.n) {
    throw std::invalid_argument("tv_opt_bcc: graph must be connected");
  }

  // Cache-friendly substitute for the Euler tour: child lists + level
  // buckets...
  RootedSpanningTree tree;
  ChildrenCsr children;
  LevelStructure levels;
  {
    TraceSpan span(tr, steps::kEulerTour);
    tree.root = opt.root;
    tree.parent = std::move(traversal.parent);
    tree.parent_edge = std::move(traversal.parent_edge);
    children = build_children(ex, ws, tree.parent, tree.root, &tr);
    levels = build_levels(ex, children, tree.root, &tr);
  }

  // ...and prefix-sum tree computations instead of list ranking.
  {
    TraceSpan span(tr, steps::kRootTree);
    preorder_and_size(ex, children, levels, tree.root, tree.pre, tree.sub,
                      &tr);
  }

  std::vector<vid> owner;
  {
    TraceSpan span(tr, "tree_owner");
    owner = make_tree_owner(ex, g.edges.size(), tree);
  }
  result.edge_component =
      tv_label_edges(ex, ws, g.edges, tree, owner, LowHighMethod::kLevelSweep,
                     &children, &levels, opt.sv_mode, opt.aux_mode, nullptr,
                     &tr);

  {
    TraceSpan span(tr, "normalize");
    result.num_components = normalize_labels(result.edge_component);
  }
  result.trace = tr.report_since(mark);
  result.times = derive_step_times(result.trace,
                                   total.seconds() + pg.conversion_seconds());
  return result;
}

}  // namespace parbcc
