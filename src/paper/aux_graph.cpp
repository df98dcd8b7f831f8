#include "paper/aux_graph.hpp"

#include "connectivity/concurrent_union_find.hpp"
#include "scan/compact.hpp"
#include "scan/scan.hpp"
#include "util/padded.hpp"
#include "util/timer.hpp"

namespace parbcc {

AuxGraph build_aux_graph(Executor& ex, Workspace& ws,
                         std::span<const Edge> edges,
                         const RootedSpanningTree& tree,
                         std::span<const vid> tree_owner, const LowHigh& lh,
                         Trace* trace) {
  const std::size_t m = edges.size();
  const vid n = tree.n();
  AuxGraph out;
  Workspace::Frame frame(ws);

  // --- Map edges to aux vertices (prefix sum over nontree flags). ----
  out.aux_id.resize(m);
  {
    TraceSpan span(trace, "aux_vertex_map");
    std::span<vid> nontree_rank = ws.alloc<vid>(m);
    ex.parallel_for(m, [&](std::size_t e) {
      nontree_rank[e] = tree_owner[e] == kNoVertex ? 1 : 0;
    });
    const vid num_nontree = exclusive_scan(ex, ws, nontree_rank.data(),
                                           nontree_rank.data(), m, vid{0});
    out.num_vertices = n + num_nontree;
    ex.parallel_for(m, [&](std::size_t e) {
      out.aux_id[e] =
          tree_owner[e] == kNoVertex ? n + nontree_rank[e] : tree_owner[e];
    });
  }

  // --- Stage candidate pairs: slot e, m+e, 2m+e per condition. -------
  TraceSpan stage_span(trace, "aux_stage");
  const Edge kEmpty{kNoVertex, kNoVertex};
  std::span<Edge> staged = ws.alloc<Edge>(3 * m);
  ex.parallel_for(3 * m, [&](std::size_t i) { staged[i] = kEmpty; });
  ex.parallel_for(m, [&](std::size_t e) {
    const vid u = edges[e].u;
    const vid v = edges[e].v;
    const vid owner = tree_owner[e];
    if (owner == kNoVertex) {
      // Condition 1: nontree (u,v) with pre(v) < pre(u) pairs with the
      // tree edge below u (i.e. aux vertex u).
      const vid hi_end = tree.pre[u] > tree.pre[v] ? u : v;
      staged[e] = {out.aux_id[e], hi_end};
      // Condition 2: endpoints unrelated pairs (u,p(u)) with (v,p(v)).
      if (!tree.is_ancestor(u, v) && !tree.is_ancestor(v, u)) {
        staged[m + e] = {u, v};
      }
    } else {
      // Condition 3: tree edge below `owner`; its parent's tree edge is
      // in the same component iff some nontree edge escapes the
      // parent's subtree from owner's subtree.
      const vid parent = tree.parent[owner];
      if (parent != tree.root) {
        if (lh.low[owner] < tree.pre[parent] ||
            lh.high[owner] >= tree.pre[parent] + tree.sub[parent]) {
          staged[2 * m + e] = {owner, parent};
        }
      }
    }
  });

  stage_span.close();

  // --- Compact into E'. -----------------------------------------------
  TraceSpan compact_span(trace, "aux_compact");
  out.edges.resize(3 * m);
  const std::size_t count = pack_into(
      ex, ws, staged.size(),
      [&](std::size_t i) { return staged[i].u != kNoVertex; },
      [&](std::size_t dst, std::size_t i) { out.edges[dst] = staged[i]; });
  out.edges.resize(count);
  out.edges.shrink_to_fit();
  compact_span.close();
  if (trace != nullptr) {
    trace->counter("aux_vertices", static_cast<double>(out.num_vertices));
    trace->counter("aux_edges", static_cast<double>(out.edges.size()));
  }
  return out;
}

std::vector<vid> fused_aux_components(Executor& ex, Workspace& ws,
                                      std::span<const Edge> edges,
                                      const RootedSpanningTree& tree,
                                      std::span<const vid> tree_owner,
                                      const LowHigh& lh, Trace* trace,
                                      FusedAuxStats* stats) {
  const std::size_t m = edges.size();
  const vid n = tree.n();
  const int p = ex.threads();
  std::vector<vid> labels(m);
  Workspace::Frame frame(ws);

  Timer timer;
  TraceSpan label_span(trace, "label_edge");

  // --- Map edges to aux vertices (prefix sum over nontree flags), as
  // in the materialized route; the map is the one edge-sized scratch
  // the fused pipeline keeps.
  std::span<vid> aux_id = ws.alloc<vid>(m);
  vid num_vertices = n;
  {
    TraceSpan span(trace, "aux_vertex_map");
    std::span<vid> nontree_rank = ws.alloc<vid>(m);
    ex.parallel_for(m, [&](std::size_t e) {
      nontree_rank[e] = tree_owner[e] == kNoVertex ? 1 : 0;
    });
    const vid num_nontree = exclusive_scan(ex, ws, nontree_rank.data(),
                                           nontree_rank.data(), m, vid{0});
    num_vertices = n + num_nontree;
    ex.parallel_for(m, [&](std::size_t e) {
      aux_id[e] =
          tree_owner[e] == kNoVertex ? n + nontree_rank[e] : tree_owner[e];
    });
  }

  // --- Hook sweep: conditions 1-3 unite aux-id pairs on the fly.  No
  // staged slots, no zero-fill, no compaction — each generated pair
  // goes straight into the concurrent forest.
  std::span<vid> parent = ws.alloc<vid>(num_vertices);
  std::span<Padded<std::uint64_t>> thread_hooks =
      ws.alloc<Padded<std::uint64_t>>(static_cast<std::size_t>(p));
  std::span<Padded<std::uint64_t>> thread_depth =
      ws.alloc<Padded<std::uint64_t>>(static_cast<std::size_t>(p));
  const ConcurrentUnionFind uf{parent};
  for (int t = 0; t < p; ++t) {
    thread_hooks[static_cast<std::size_t>(t)].value = 0;
    thread_depth[static_cast<std::size_t>(t)].value = 0;
  }
  // Both sweeps run as chunked grained loops with the chunk totals
  // flushed into the executing worker's padded slot (each slot runs
  // its tasks serially): work-stealing can then rebalance chunks, which
  // matters because hook/find depth is data-dependent and the flat
  // per-thread blocks serialized on the unluckiest block.
  constexpr std::size_t kSweepGrain = 2048;
  const std::size_t chunks = (m + kSweepGrain - 1) / kSweepGrain;
  {
    TraceSpan span(trace, "aux_hook");
    ConcurrentUnionFind::init(ex, parent);
    ex.parallel_for(0, chunks, 1, [&](std::size_t c) {
      const std::size_t begin = c * kSweepGrain;
      const std::size_t end = std::min(m, begin + kSweepGrain);
      std::uint64_t hooks = 0;
      std::uint64_t depth = 0;
      for (std::size_t e = begin; e < end; ++e) {
        const vid u = edges[e].u;
        const vid v = edges[e].v;
        const vid owner = tree_owner[e];
        if (owner == kNoVertex) {
          // Condition 1: nontree (u,v) with pre(v) < pre(u) pairs with
          // the tree edge below u (i.e. aux vertex u).
          const vid hi_end = tree.pre[u] > tree.pre[v] ? u : v;
          hooks += uf.unite(aux_id[e], hi_end, depth) ? 1 : 0;
          // Condition 2: endpoints unrelated pairs (u,p(u)) with
          // (v,p(v)).
          if (!tree.is_ancestor(u, v) && !tree.is_ancestor(v, u)) {
            hooks += uf.unite(u, v, depth) ? 1 : 0;
          }
        } else {
          // Condition 3: tree edge below `owner`; its parent's tree
          // edge is in the same component iff some nontree edge
          // escapes the parent's subtree from owner's subtree.
          const vid par = tree.parent[owner];
          if (par != tree.root) {
            if (lh.low[owner] < tree.pre[par] ||
                lh.high[owner] >= tree.pre[par] + tree.sub[par]) {
              hooks += uf.unite(owner, par, depth) ? 1 : 0;
            }
          }
        }
      }
      const auto w = static_cast<std::size_t>(ex.worker_id());
      thread_hooks[w].value += hooks;
      thread_depth[w].value += depth;
    });
  }
  label_span.close();
  const double label_seconds = timer.lap();

  // --- Label sweep: the quiescent forest's roots are the component
  // minima; read each edge's label through its aux image, halving as
  // we go (the sweep doubles as the flattening pass).
  TraceSpan cc_span(trace, "connected_components");
  {
    TraceSpan span(trace, "aux_gather");
    ex.parallel_for(0, chunks, 1, [&](std::size_t c) {
      const std::size_t begin = c * kSweepGrain;
      const std::size_t end = std::min(m, begin + kSweepGrain);
      std::uint64_t depth = 0;
      for (std::size_t e = begin; e < end; ++e) {
        labels[e] = uf.find(aux_id[e], depth);
      }
      thread_depth[static_cast<std::size_t>(ex.worker_id())].value += depth;
    });
  }
  cc_span.close();
  const double cc_seconds = timer.lap();

  std::uint64_t total_hooks = 0;
  std::uint64_t total_depth = 0;
  for (int t = 0; t < p; ++t) {
    total_hooks += thread_hooks[static_cast<std::size_t>(t)].value;
    total_depth += thread_depth[static_cast<std::size_t>(t)].value;
  }
  if (trace != nullptr) {
    trace->counter("aux_vertices", static_cast<double>(num_vertices));
    trace->counter("aux_hooks", static_cast<double>(total_hooks));
    trace->counter("aux_find_depth", static_cast<double>(total_depth));
  }
  if (stats != nullptr) {
    stats->num_vertices = num_vertices;
    stats->hooks = total_hooks;
    stats->find_depth = total_depth;
    stats->label_edge_seconds = label_seconds;
    stats->connected_components_seconds = cc_seconds;
  }
  return labels;
}

}  // namespace parbcc
