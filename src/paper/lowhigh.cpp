#include "paper/lowhigh.hpp"

#include <atomic>

#include "paper/sparse_table.hpp"

namespace parbcc {
namespace {

void atomic_min(std::atomic_ref<vid> slot, vid v) {
  vid cur = slot.load(std::memory_order_relaxed);
  while (v < cur &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic_ref<vid> slot, vid v) {
  vid cur = slot.load(std::memory_order_relaxed);
  while (v > cur &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

/// Per-vertex extrema over {pre(v)} and {pre(w) : (v,w) nontree}.
/// Works in place on the result vectors via atomic_ref, so it needs no
/// shadow atomic arrays (and no copy-out pass).
void local_extrema(Executor& ex, std::span<const Edge> edges,
                   const RootedSpanningTree& tree,
                   std::span<const vid> tree_owner, std::vector<vid>& lo,
                   std::vector<vid>& hi) {
  const std::size_t n = tree.parent.size();
  lo.resize(n);
  hi.resize(n);
  ex.parallel_for(n, [&](std::size_t v) {
    lo[v] = tree.pre[v];
    hi[v] = tree.pre[v];
  });
  ex.parallel_for(edges.size(), [&](std::size_t e) {
    if (tree_owner[e] != kNoVertex) return;  // tree edges don't contribute
    const vid u = edges[e].u;
    const vid v = edges[e].v;
    atomic_min(std::atomic_ref(lo[u]), tree.pre[v]);
    atomic_min(std::atomic_ref(lo[v]), tree.pre[u]);
    atomic_max(std::atomic_ref(hi[u]), tree.pre[v]);
    atomic_max(std::atomic_ref(hi[v]), tree.pre[u]);
  });
}

}  // namespace

LowHigh compute_low_high_rmq(Executor& ex, Workspace& ws,
                             std::span<const Edge> edges,
                             const RootedSpanningTree& tree,
                             std::span<const vid> tree_owner, Trace* trace) {
  const std::size_t n = tree.parent.size();
  LowHigh out;
  {
    TraceSpan span(trace, "lh_local");
    local_extrema(ex, edges, tree, tree_owner, out.low, out.high);
  }
  if (n == 0) return out;

  TraceSpan span(trace, "lh_aggregate");
  // Subtree(v) is the preorder interval [pre(v), pre(v)+sub(v)): lay
  // the local values out in preorder and answer each vertex with one
  // range query.  The scatter buffers and both O(n log n) tables are
  // frame scratch; the frame stays open across every query.
  Workspace::Frame frame(ws);
  std::span<vid> lo_by_pre = ws.alloc<vid>(n);
  std::span<vid> hi_by_pre = ws.alloc<vid>(n);
  ex.parallel_for(n, [&](std::size_t v) {
    lo_by_pre[tree.pre[v] - 1] = out.low[v];
    hi_by_pre[tree.pre[v] - 1] = out.high[v];
  });
  const MinTable<vid> min_table(ex, ws, lo_by_pre.data(), n);
  const MaxTable<vid> max_table(ex, ws, hi_by_pre.data(), n);
  ex.parallel_for(n, [&](std::size_t v) {
    const std::size_t l = tree.pre[v] - 1;
    const std::size_t r = l + tree.sub[v] - 1;
    out.low[v] = min_table.query(l, r);
    out.high[v] = max_table.query(l, r);
  });
  return out;
}

LowHigh compute_low_high_levels(Executor& ex, std::span<const Edge> edges,
                                const RootedSpanningTree& tree,
                                std::span<const vid> tree_owner,
                                const ChildrenCsr& children,
                                const LevelStructure& levels, Trace* trace) {
  LowHigh out;
  {
    TraceSpan span(trace, "lh_local");
    local_extrema(ex, edges, tree, tree_owner, out.low, out.high);
  }
  TraceSpan span(trace, "lh_aggregate");
  subtree_min(ex, children, levels, out.low.data());
  subtree_max(ex, children, levels, out.high.data());
  return out;
}

}  // namespace parbcc
