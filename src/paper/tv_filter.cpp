#include <stdexcept>

#include "connectivity/components.hpp"
#include "graph/csr.hpp"
#include "paper/sv_tree.hpp"
#include "paper/tv_core.hpp"
#include "scan/compact.hpp"
#include "spanning/bfs_tree.hpp"
#include "util/bitvector.hpp"
#include "util/trace.hpp"

namespace parbcc {

BccResult tv_filter_bcc(Executor& ex, Workspace& ws, const PreparedGraph& pg,
                        const paper::PaperOptions& opt, vid root,
                        Trace& tr) {
  const EdgeList& g = pg.graph();
  const Csr& csr = pg.csr();
  BccResult result;
  const vid n = g.n;
  const eid m = g.m();

  // Alg. 2 step 1: T must be a BFS tree (Lemma 1 needs its level
  // structure).
  BfsTree bfs;
  {
    TraceSpan span(tr, steps::kSpanningTree);
    bfs = bfs_tree(ex, ws, csr, {&root, 1}, BfsMode::kAuto, &tr);
  }
  if (bfs.reached != n) {
    throw std::invalid_argument("tv_filter_bcc: graph must be connected");
  }

  // Alg. 2 step 2: spanning forest F of G - T.
  // Candidates exclude edges parallel to a tree edge: such an edge is
  // always labeled by condition 1 with its tree twin's component, and
  // keeping it out of F preserves Lemma 1 (no ancestral relationship
  // between F-edge endpoints) on multigraph inputs.
  // The tree-membership flags and the candidate list are dead once F
  // is built, so they live in one workspace frame.  Membership is a
  // packed bitmap (one word per 64 edges, not one byte per edge); the
  // marking scatter hits arbitrary edge ids, so bits in a shared word
  // are set atomically.
  SpanningForest forest;
  {
    TraceSpan span(tr, steps::kFiltering);
    Workspace::Frame frame(ws);
    BitSpan in_tree(ws.alloc<std::uint64_t>(BitSpan::words_for(m)));
    ex.parallel_for(in_tree.words().size(),
                    [&](std::size_t w) { in_tree.words()[w] = 0; });
    ex.parallel_for(n, [&](std::size_t v) {
      if (bfs.parent_edge[v] != kNoEdge) in_tree.set_atomic(bfs.parent_edge[v]);
    });
    std::span<eid> candidates = ws.alloc<eid>(m);
    const std::size_t num_candidates = pack_indices(
        ex, ws, m,
        [&](std::size_t e) {
          if (in_tree.get(e)) return false;
          const vid u = g.edges[e].u;
          const vid v = g.edges[e].v;
          return bfs.parent[u] != v && bfs.parent[v] != u;
        },
        candidates);
    forest = sv_spanning_forest(ex, ws, n, g.edges,
                                candidates.first(num_candidates));
    tr.counter("filter_candidates", static_cast<double>(num_candidates));
    tr.counter("sv_rounds", static_cast<double>(forest.rounds));
  }

  // Assemble H = T u F, remembering each H edge's original id.  Tree
  // edges occupy slots [0, n-1) in a fixed per-vertex layout so the
  // local parent_edge column is computable in parallel.  The H edge
  // list and its bookkeeping stay live until the final scatter, so
  // their frame spans the rest of the solve.
  TraceSpan euler_span(tr, steps::kEulerTour);
  TraceSpan assemble_span(tr, "assemble_h");
  const std::size_t t_count = n - 1;
  const std::size_t h_count = t_count + forest.tree_edges.size();
  Workspace::Frame frame(ws);
  std::span<Edge> h_edges = ws.alloc<Edge>(h_count);
  std::span<eid> orig_of = ws.alloc<eid>(h_count);
  BitSpan in_h(ws.alloc<std::uint64_t>(BitSpan::words_for(m)));
  ex.parallel_for(in_h.words().size(),
                  [&](std::size_t w) { in_h.words()[w] = 0; });

  RootedSpanningTree tree;
  tree.root = root;
  tree.parent = bfs.parent;
  tree.parent_edge.assign(n, kNoEdge);
  ex.parallel_for(n, [&](std::size_t v) {
    if (v == root) return;
    const std::size_t slot = v < root ? v : v - 1;
    const eid e = bfs.parent_edge[v];
    h_edges[slot] = g.edges[e];
    orig_of[slot] = e;
    in_h.set_atomic(e);
    tree.parent_edge[v] = static_cast<eid>(slot);
  });
  ex.parallel_for(forest.tree_edges.size(), [&](std::size_t k) {
    const eid e = forest.tree_edges[k];
    h_edges[t_count + k] = g.edges[e];
    orig_of[t_count + k] = e;
    in_h.set_atomic(e);
  });
  tr.counter("h_edges", static_cast<double>(h_count));
  assemble_span.close();

  // Rooted-tree computations over T (TV-opt pipeline).
  const ChildrenCsr children =
      build_children(ex, ws, tree.parent, tree.root, &tr);
  const LevelStructure levels = build_levels(ex, children, tree.root, &tr);
  euler_span.close();
  {
    TraceSpan span(tr, steps::kRootTree);
    preorder_and_size(ex, children, levels, tree.root, tree.pre, tree.sub,
                      &tr);
  }

  // Alg. 2 step 3: TV on H (at most 2(n-1) edges).
  std::vector<vid> owner;
  {
    TraceSpan span(tr, "tree_owner");
    owner = make_tree_owner(ex, h_count, tree);
  }
  const std::vector<vid> h_labels =
      tv_label_edges(ex, ws, h_edges, tree, owner, LowHighMethod::kLevelSweep,
                     &children, &levels, SvMode::kFastSV, opt.aux_mode, nullptr,
                     &tr);

  // Alg. 2 step 4: scatter H labels back; every filtered edge (u,v)
  // joins the component of the tree edge below its higher-preorder
  // endpoint (condition 1, valid for any rooted spanning tree).
  // Same step name as the forest build above: the rollup aggregates
  // both occurrences into one "filtering" phase (calls == 2), matching
  // the paper's single Filtering bar.
  {
    TraceSpan span(tr, steps::kFiltering);
    result.edge_component.assign(m, kNoVertex);
    ex.parallel_for(h_count, [&](std::size_t h) {
      result.edge_component[orig_of[h]] = h_labels[h];
    });
    ex.parallel_for(m, [&](std::size_t e) {
      if (in_h.get(e)) return;
      const vid u = g.edges[e].u;
      const vid v = g.edges[e].v;
      const vid hi_end = tree.pre[u] > tree.pre[v] ? u : v;
      result.edge_component[e] = h_labels[tree.parent_edge[hi_end]];
    });
  }

  {
    TraceSpan span(tr, "normalize");
    result.num_components = normalize_labels(result.edge_component);
  }
  return result;
}

}  // namespace parbcc
