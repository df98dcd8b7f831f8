#include <algorithm>

#include "connectivity/concurrent_union_find.hpp"
#include "connectivity/shiloach_vishkin.hpp"
#include "core/drivers.hpp"
#include "eulertour/tree_computations.hpp"
#include "graph/csr.hpp"
#include "scan/compact.hpp"
#include "spanning/bfs_tree.hpp"
#include "util/padded.hpp"
#include "util/trace.hpp"

/// \file fast_bcc.cpp
/// FastBCC (Dong, Wang, Gu & Sun, PPoPP 2023) adapted to this
/// codebase's primitives.  The pipeline replaces the whole
/// Tarjan-Vishkin chain (Euler tour / low-high per edge / auxiliary
/// graph) with tags on the spanning tree itself:
///
///  1. Spanning-tree: direction-optimizing BFS (shared with TV-filter).
///  2. Compressed Euler-tour tagging: 1-based preorder `first[v]` and
///     interval end `last[v] = first[v] + sub[v] - 1` from the level
///     sweeps; then low[v] / high[v] = min / max neighbour preorder
///     over v's whole subtree (one CSR sweep + subtree min/max).
///  3. Skeleton connectivity via the concurrent union-find: the tree
///     edge (parent(v), v) hooks unless it is *critical* — every edge
///     out of subtree(v) stays inside parent(v)'s preorder interval
///     (low[v] >= first[parent], high[v] <= last[parent]), in which
///     case parent(v) is the head of the BCC containing that tree edge
///     and v seeds a new cluster.  Non-tree *cross* edges (neither
///     endpoint an ancestor of the other) hook their endpoints; back
///     edges are skipped — the tree path below them is non-critical
///     edge by edge, so they add nothing the tree sweep did not.
///  4. Label-edge: every edge belongs to the cluster of its deeper
///     endpoint (the one that is not the BCC head); for cross edges
///     both endpoints share a cluster by step 3, so either works.
///
/// Correctness of the criticality rule does not need a DFS tree: the
/// test reads only preorder intervals, which any rooted spanning tree
/// provides, and BFS trees merely add cross edges — handled in step 3.
/// Root children are always critical (every preorder lies inside the
/// root's interval), so the root is the head of each of its BCCs and
/// never labels an edge.

namespace parbcc {
namespace {

/// Out-of-line hub reduction for the low/high sweep: min/max neighbour
/// preorder over a high-degree adjacency via a nested parallel region
/// (the per-vertex inner parallel_for of PASGAL's euler_tour_tree).
/// Deliberately noinline and value-in / value-out: inlining it put an
/// inner closure inside the per-vertex lambda that captured the common
/// path's lo/hi accumulators by reference, pinning them to the stack
/// and blocking vectorization of the tight degree loop — a 4x low_high
/// regression on graphs that never take the hub path at all.
[[gnu::noinline]] std::pair<vid, vid> hub_pre_minmax(
    Executor& ex, const vid* pre, std::span<const vid> nbrs, vid seed) {
  constexpr std::size_t kInnerGrain = 1024;
  constexpr std::size_t kMaxChunks = 64;
  const std::size_t deg = nbrs.size();
  const std::size_t chunks = std::min(kMaxChunks, deg / kInnerGrain);
  Padded<std::pair<vid, vid>> part[kMaxChunks];
  ex.parallel_for(0, chunks, 1, [&](std::size_t c) {
    const auto [cb, ce] = Executor::block_range(deg, static_cast<int>(chunks),
                                                static_cast<int>(c));
    vid l = seed;
    vid h = seed;
    for (std::size_t j = cb; j < ce; ++j) {
      const vid pw = pre[nbrs[j]];
      l = std::min(l, pw);
      h = std::max(h, pw);
    }
    part[c].value = {l, h};
  });
  vid lo = seed;
  vid hi = seed;
  for (std::size_t c = 0; c < chunks; ++c) {
    lo = std::min(lo, part[c].value.first);
    hi = std::max(hi, part[c].value.second);
  }
  return {lo, hi};
}

}  // namespace

BccResult fast_bcc(Executor& ex, Workspace& ws, const PreparedGraph& pg,
                   vid root, Trace& tr) {
  const EdgeList& g = pg.graph();
  const Csr& csr = pg.csr();
  BccResult result;
  const vid n = g.n;
  const eid m = g.m();
  const int p = ex.threads();

  if (n == 0) return result;

  // Step 1: BFS spanning tree (Beamer hybrid, as TV-filter).  A BFS
  // that reaches every vertex proves the graph connected for free.
  // Otherwise one SV pass names a root per component (`root` stands in
  // for its own component's) and a multi-source BFS spans the forest.
  BfsTree bfs;
  vid num_roots = 0;
  {
    TraceSpan span(tr, steps::kSpanningTree);
    bfs = bfs_tree(ex, ws, csr, {&root, 1}, BfsMode::kAuto, &tr);
    if (bfs.reached != n) {
      Workspace::Frame frame(ws);
      std::span<vid> roots = ws.alloc<vid>(n);
      {
        TraceSpan roots_span(tr, "component_roots");
        std::span<vid> label = ws.alloc<vid>(n);
        connected_components_sv(ex, ws, n, g.edges, label);
        // SV labels each component by its smallest vertex; `root`
        // replaces that representative in its own component.
        const vid root_label = label[root];
        num_roots = static_cast<vid>(pack_indices_span(
            ex, ws, n,
            [&](std::size_t v) {
              return v == root || (label[v] == v && v != root_label);
            },
            roots));
      }
      bfs = bfs_tree(ex, ws, csr, roots.first(num_roots), BfsMode::kAuto, &tr);
    }
  }

  // Step 2a: rooted-tree structure (child lists + level buckets), the
  // compressed substitute for materializing the Euler circuit.  A
  // forest hangs under a virtual root n with no adjacency: its children
  // are the component roots, each tree edge to it is critical, and the
  // interval tests, sweeps and hooks below run unchanged over n + 1
  // tree vertices.
  const bool forest = num_roots != 0;
  const vid tn = forest ? n + 1 : n;
  RootedSpanningTree tree;
  ChildrenCsr children;
  LevelStructure levels;
  {
    TraceSpan span(tr, steps::kEulerTour);
    tree.root = forest ? n : root;
    tree.parent = std::move(bfs.parent);
    tree.parent_edge = std::move(bfs.parent_edge);
    if (forest) {
      tree.parent.push_back(n);
      tree.parent_edge.push_back(kNoEdge);
      ex.parallel_for(n, [&](std::size_t v) {
        if (tree.parent[v] == v) tree.parent[v] = n;
      });
    }
    children = build_children(ex, ws, tree.parent, tree.root, &tr);
    levels = build_levels(ex, children, tree.root, &tr);
  }
  {
    TraceSpan span(tr, steps::kRootTree);
    preorder_and_size(ex, children, levels, tree.root, tree.pre, tree.sub,
                      &tr);
  }

  // All per-vertex scratch for the rest of the solve: low/high tags and
  // the union-find parent array — 3n vids, the whole reason this
  // driver's high-water mark undercuts TV-filter's per-edge buffers.
  Workspace::Frame frame(ws);
  std::span<vid> low = ws.alloc<vid>(tn);
  std::span<vid> high = ws.alloc<vid>(tn);
  std::span<vid> cluster = ws.alloc<vid>(tn);

  // Step 2b: low/high tagging.  Tree neighbours may participate: their
  // preorders always lie inside the parent interval the criticality
  // test checks against, so they never flip a verdict and filtering
  // them would only cost branches.  The per-vertex scan is
  // degree-skewed, so the chunks are claimed dynamically — and under
  // work-stealing a heavy hub's adjacency itself becomes a nested
  // parallel region (the per-vertex inner parallel_for of PASGAL's
  // euler_tour_tree), so one vertex owning a quarter of the edges no
  // longer strands its whole scan on a single worker.
  {
    TraceSpan span(tr, steps::kLowHigh);
    const vid* pre = tree.pre.data();
    constexpr std::size_t kHubDegree = 2048;  // 2x the helper's grain
    const bool nest = ex.mode() == ExecMode::kWorkSteal && ex.threads() > 1;
    ex.parallel_for_dynamic(n, /*grain=*/512, [&](std::size_t v) {
      const std::span<const vid> nbrs = csr.neighbors(static_cast<vid>(v));
      vid lo = pre[v];
      vid hi = lo;
      if (nest && nbrs.size() > kHubDegree) {
        const std::pair<vid, vid> lh = hub_pre_minmax(ex, pre, nbrs, lo);
        lo = lh.first;
        hi = lh.second;
      } else {
        for (const vid w : nbrs) {
          const vid pw = pre[w];
          lo = std::min(lo, pw);
          hi = std::max(hi, pw);
        }
      }
      low[v] = lo;
      high[v] = hi;
    });
    if (forest) low[n] = high[n] = pre[n];
    subtree_min(ex, children, levels, low.data());
    subtree_max(ex, children, levels, high.data());
  }

  // Step 3: skeleton connectivity.  Two hook sweeps into one
  // concurrent union-find: non-critical tree edges, then cross edges
  // (the parallel_for boundaries are the barriers separating hook and
  // read phases the structure requires).
  const ConcurrentUnionFind uf(cluster);
  {
    TraceSpan span(tr, steps::kConnectedComponents);
    ConcurrentUnionFind::init(ex, cluster);
    std::span<Padded<std::uint64_t>> thread_hooks =
        ws.alloc<Padded<std::uint64_t>>(static_cast<std::size_t>(p));
    std::span<Padded<std::uint64_t>> thread_depth =
        ws.alloc<Padded<std::uint64_t>>(static_cast<std::size_t>(p));
    std::span<Padded<std::uint64_t>> thread_critical =
        ws.alloc<Padded<std::uint64_t>>(static_cast<std::size_t>(p));
    std::span<Padded<std::uint64_t>> thread_cross =
        ws.alloc<Padded<std::uint64_t>>(static_cast<std::size_t>(p));
    for (int t = 0; t < p; ++t) {
      thread_hooks[static_cast<std::size_t>(t)].value = 0;
      thread_depth[static_cast<std::size_t>(t)].value = 0;
      thread_critical[static_cast<std::size_t>(t)].value = 0;
      thread_cross[static_cast<std::size_t>(t)].value = 0;
    }
    // Both sweeps run as chunked grained loops: chunk-local register
    // accumulation flushed into the executing worker's padded slot
    // (exclusive per slot under either scheduler), so work-stealing can
    // rebalance chunks — union-find hook depth is data-dependent and
    // the SPMD blocks serialized on the unluckiest block.
    TraceSpan hook_span(tr, "skeleton_hook");
    constexpr std::size_t kHookGrain = 2048;
    const std::size_t vchunks = (tn + kHookGrain - 1) / kHookGrain;
    ex.parallel_for(0, vchunks, 1, [&](std::size_t c) {
      const std::size_t begin = c * kHookGrain;
      const std::size_t end = std::min<std::size_t>(tn, begin + kHookGrain);
      std::uint64_t hooks = 0;
      std::uint64_t depth = 0;
      std::uint64_t critical = 0;
      for (std::size_t v = begin; v < end; ++v) {
        if (v == tree.root) continue;
        const vid par = tree.parent[v];
        const vid par_first = tree.pre[par];
        const vid par_last = par_first + tree.sub[par] - 1;
        if (low[v] >= par_first && high[v] <= par_last) {
          ++critical;  // parent(v) heads this BCC: v seeds the cluster
          continue;
        }
        if (uf.unite(static_cast<vid>(v), par, depth)) ++hooks;
      }
      const auto w = static_cast<std::size_t>(ex.worker_id());
      thread_hooks[w].value += hooks;
      thread_depth[w].value += depth;
      thread_critical[w].value += critical;
    });
    const std::size_t echunks = (m + kHookGrain - 1) / kHookGrain;
    ex.parallel_for(0, echunks, 1, [&](std::size_t c) {
      const std::size_t begin = c * kHookGrain;
      const std::size_t end = std::min<std::size_t>(m, begin + kHookGrain);
      std::uint64_t hooks = 0;
      std::uint64_t depth = 0;
      std::uint64_t cross = 0;
      for (std::size_t e = begin; e < end; ++e) {
        const vid u = g.edges[e].u;
        const vid v = g.edges[e].v;
        // Ancestor-related pairs cover tree edges, their parallel
        // copies and genuine back edges alike: all skipped.
        if (tree.is_ancestor(u, v) || tree.is_ancestor(v, u)) continue;
        ++cross;
        if (uf.unite(u, v, depth)) ++hooks;
      }
      const auto w = static_cast<std::size_t>(ex.worker_id());
      thread_hooks[w].value += hooks;
      thread_depth[w].value += depth;
      thread_cross[w].value += cross;
    });
    hook_span.close();
    uf.flatten(ex);
    std::uint64_t total_hooks = 0;
    std::uint64_t total_depth = 0;
    std::uint64_t total_critical = 0;
    std::uint64_t total_cross = 0;
    for (int t = 0; t < p; ++t) {
      total_hooks += thread_hooks[static_cast<std::size_t>(t)].value;
      total_depth += thread_depth[static_cast<std::size_t>(t)].value;
      total_critical += thread_critical[static_cast<std::size_t>(t)].value;
      total_cross += thread_cross[static_cast<std::size_t>(t)].value;
    }
    tr.counter("fastbcc_hooks", static_cast<double>(total_hooks));
    tr.counter("fastbcc_find_depth", static_cast<double>(total_depth));
    tr.counter("fastbcc_critical", static_cast<double>(total_critical));
    tr.counter("fastbcc_cross_edges", static_cast<double>(total_cross));
  }

  // Step 4: per-edge labels off the flattened clusters.
  {
    TraceSpan span(tr, steps::kLabelEdge);
    result.edge_component.resize(m);
    ex.parallel_for(m, [&](std::size_t e) {
      const vid u = g.edges[e].u;
      const vid v = g.edges[e].v;
      const vid deeper = tree.is_ancestor(u, v) ? v : u;
      result.edge_component[e] = cluster[deeper];
    });
  }

  {
    TraceSpan span(tr, "normalize");
    result.num_components = normalize_labels(result.edge_component);
  }
  return result;
}

}  // namespace parbcc
