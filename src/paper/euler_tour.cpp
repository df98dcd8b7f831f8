#include "paper/euler_tour.hpp"

#include <atomic>
#include <stdexcept>

#include "paper/list_ranking.hpp"
#include "paper/sample_sort.hpp"
#include "scan/scan.hpp"
#include "util/timer.hpp"

namespace parbcc {
namespace {

/// Per-arc source endpoints, materialized once per circuit build:
/// ends[a] is the tail of arc a and ends[a ^ 1] its head.  Every sweep
/// below walks this flat array instead of chasing the
/// edges[tree_edges[a >> 1]] double indirection per access.
std::span<vid> materialize_arc_ends(Executor& ex, Workspace& ws,
                                    std::span<const Edge> edges,
                                    std::span<const eid> tree_edges) {
  std::span<vid> ends = ws.alloc<vid>(2 * tree_edges.size());
  ex.parallel_for(tree_edges.size(), [&](std::size_t t) {
    const Edge& e = edges[tree_edges[t]];
    ends[2 * t] = e.u;
    ends[2 * t + 1] = e.v;
  });
  return ends;
}

}  // namespace

EulerCircuit build_euler_circuit(Executor& ex, Workspace& ws, vid n,
                                 std::span<const Edge> edges,
                                 std::span<const eid> tree_edges, vid root,
                                 ArcSort sort, Trace* trace) {
  const std::size_t num_arcs = 2 * tree_edges.size();
  EulerCircuit out;
  if (num_arcs == 0) return out;

  Workspace::Frame frame(ws);
  std::span<const vid> ends = materialize_arc_ends(ex, ws, edges, tree_edges);

  // --- Group arcs by source vertex. ----------------------------------
  // offsets[v] .. offsets[v+1] delimit v's arc group in sorted_arcs.
  std::span<eid> offsets = ws.alloc<eid>(static_cast<std::size_t>(n) + 1);
  {
    std::span<eid> deg = ws.alloc<eid>(n);
    ex.parallel_for(n, [&](std::size_t v) { deg[v] = 0; });
    ex.parallel_for(num_arcs, [&](std::size_t a) {
      std::atomic_ref(deg[ends[a]]).fetch_add(1, std::memory_order_relaxed);
    });
    const eid total =
        exclusive_scan(ex, ws, deg.data(), offsets.data(), n, eid{0});
    offsets[n] = total;
  }

  std::span<vid> sorted_arcs = ws.alloc<vid>(num_arcs);
  TraceSpan sort_span(trace, "arc_sort");
  if (sort == ArcSort::kSampleSort) {
    // The paper's route: sort the arcs with the parallel sample sort.
    // Key = (source vertex, arc id); any within-group order yields a
    // valid circular adjacency.
    std::span<std::uint64_t> items = ws.alloc<std::uint64_t>(num_arcs);
    ex.parallel_for(num_arcs, [&](std::size_t a) {
      items[a] = (static_cast<std::uint64_t>(ends[a]) << 32) | a;
    });
    sample_sort(ex, ws, items.data(), num_arcs);
    ex.parallel_for(num_arcs, [&](std::size_t i) {
      sorted_arcs[i] = static_cast<vid>(items[i] & 0xffffffffu);
    });
  } else {
    // Bucket scatter; order within a group is arrival order.
    std::span<eid> cursor = ws.alloc<eid>(n);
    ex.parallel_for(n, [&](std::size_t v) { cursor[v] = offsets[v]; });
    ex.parallel_for(num_arcs, [&](std::size_t a) {
      const eid slot = std::atomic_ref(cursor[ends[a]])
                           .fetch_add(1, std::memory_order_relaxed);
      sorted_arcs[slot] = static_cast<vid>(a);
    });
  }

  sort_span.close();

  std::span<eid> arc_pos = ws.alloc<eid>(num_arcs);
  ex.parallel_for(num_arcs, [&](std::size_t i) {
    arc_pos[sorted_arcs[i]] = static_cast<eid>(i);
  });

  // --- Successor: succ(u->v) = arc after (v->u) in v's circular group.
  out.succ.resize(num_arcs);
  ex.parallel_for(num_arcs, [&](std::size_t a) {
    const vid twin = static_cast<vid>(a ^ 1);
    const vid v = ends[twin];
    const eid idx = arc_pos[twin];
    const eid next = (idx + 1 == offsets[v + 1]) ? offsets[v] : idx + 1;
    out.succ[a] = sorted_arcs[next];
  });

  // --- Break the circuit at the root. ---------------------------------
  if (offsets[root + 1] == offsets[root]) {
    throw std::invalid_argument(
        "build_euler_circuit: root has no incident tree edge");
  }
  out.head = sorted_arcs[offsets[root]];
  const vid last_out = sorted_arcs[offsets[root + 1] - 1];
  out.succ[last_out ^ 1] = kNoVertex;  // the tour's final arc enters root
  return out;
}

RootedSpanningTree root_tree_via_euler_tour(Executor& ex, Workspace& ws,
                                            vid n, std::span<const Edge> edges,
                                            std::span<const eid> tree_edges,
                                            vid root, ListRanker ranker,
                                            ArcSort sort,
                                            EulerTourTimes* times,
                                            Trace* trace) {
  if (n >= 1 && tree_edges.size() + 1 != n) {
    throw std::invalid_argument(
        "root_tree_via_euler_tour: tree must span all vertices");
  }
  RootedSpanningTree tree;
  tree.root = root;
  tree.parent.assign(n, kNoVertex);
  tree.parent_edge.assign(n, kNoEdge);
  tree.pre.assign(n, 0);
  tree.sub.assign(n, 0);
  if (n == 0) return tree;
  tree.parent[root] = root;
  tree.pre[root] = 1;
  tree.sub[root] = n;
  if (n == 1) return tree;

  Timer timer;
  TraceSpan circuit_span(trace, "euler_tour");
  const EulerCircuit circuit =
      build_euler_circuit(ex, ws, n, edges, tree_edges, root, sort, trace);
  circuit_span.close();
  if (times) times->circuit = timer.lap();
  const std::size_t num_arcs = 2 * tree_edges.size();

  TraceSpan rooting_span(trace, "root_tree");
  Workspace::Frame frame(ws);
  std::span<const vid> ends = materialize_arc_ends(ex, ws, edges, tree_edges);
  std::span<vid> rank = ws.alloc<vid>(num_arcs);
  {
    TraceSpan span(trace, "list_ranking");
    switch (ranker) {
      case ListRanker::kSequential:
        list_rank_sequential(circuit.succ.data(), rank.data(), num_arcs,
                             circuit.head);
        break;
      case ListRanker::kWyllie:
        list_rank_wyllie(ex, ws, circuit.succ.data(), rank.data(), num_arcs,
                         circuit.head);
        break;
      case ListRanker::kHelmanJaja:
        list_rank_hj(ex, ws, circuit.succ.data(), rank.data(), num_arcs,
                     circuit.head);
        break;
    }
  }
  TraceSpan values_span(trace, "tree_values");

  // An arc is a "descending" (tree) arc iff it is ranked before its twin.
  // Its head's parent, preorder and subtree size follow from the ranks.
  ex.parallel_for(tree_edges.size(), [&](std::size_t t) {
    const vid down = rank[2 * t] < rank[2 * t + 1] ? static_cast<vid>(2 * t)
                                                   : static_cast<vid>(2 * t + 1);
    const vid child = ends[static_cast<std::size_t>(down) ^ 1];
    tree.parent[child] = ends[down];
    tree.parent_edge[child] = tree_edges[t];
    // sub = (rank(up) - rank(down) + 1) / 2: the arcs strictly between
    // the two are exactly the 2(sub-1) arcs inside the subtree.
    tree.sub[child] =
        (rank[static_cast<std::size_t>(down) ^ 1] - rank[down] + 1) / 2;
  });

  // Preorder = 1 + number of descending arcs ranked at or before the
  // vertex's down arc: scatter descending flags into tour order, scan.
  std::span<vid> by_rank = ws.alloc<vid>(num_arcs);
  ex.parallel_for(num_arcs, [&](std::size_t a) {
    const bool down = rank[a] < rank[a ^ 1];
    by_rank[rank[a]] = down ? 1 : 0;
  });
  inclusive_scan(ex, ws, by_rank.data(), by_rank.data(), num_arcs, vid{0});
  ex.parallel_for(tree_edges.size(), [&](std::size_t t) {
    const vid down = rank[2 * t] < rank[2 * t + 1] ? static_cast<vid>(2 * t)
                                                   : static_cast<vid>(2 * t + 1);
    tree.pre[ends[static_cast<std::size_t>(down) ^ 1]] = by_rank[rank[down]] + 1;
  });
  if (times) times->rooting = timer.lap();
  return tree;
}

}  // namespace parbcc
