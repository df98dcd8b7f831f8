#include <stdexcept>

#include "connectivity/components.hpp"
#include "graph/csr.hpp"
#include "paper/traversal_tree.hpp"
#include "paper/tv_core.hpp"
#include "util/trace.hpp"

namespace parbcc {

BccResult tv_opt_bcc(Executor& ex, Workspace& ws, const PreparedGraph& pg,
                     const paper::PaperOptions& opt, vid root, Trace& tr) {
  const EdgeList& g = pg.graph();
  const Csr& csr = pg.csr();
  BccResult result;

  // Merged Spanning-tree + Root-tree: the traversal sets parents
  // directly.
  TraversalTree traversal;
  {
    TraceSpan span(tr, steps::kSpanningTree);
    traversal = traversal_spanning_tree(ex, csr, root);
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
    tree.root = root;
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
                     &children, &levels, SvMode::kFastSV, opt.aux_mode, nullptr,
                     &tr);

  {
    TraceSpan span(tr, "normalize");
    result.num_components = normalize_labels(result.edge_component);
  }
  return result;
}

}  // namespace parbcc
