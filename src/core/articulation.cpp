#include "core/articulation.hpp"

#include <atomic>
#include <span>

#include "scan/compact.hpp"

namespace parbcc {

void annotate_cut_info(Executor& ex, Workspace& ws, const EdgeList& g,
                       BccResult& result) {
  const vid n = g.n;
  const eid m = g.m();
  const vid k = result.num_components;
  Workspace::Frame frame(ws);

  // --- Articulation points: incident to >= 2 distinct labels. --------
  // The articulation flags are set in place on the result vector via
  // atomic_ref; only the first-seen label per vertex needs scratch.
  result.is_articulation.assign(n, 0);
  std::span<vid> first_label = ws.alloc<vid>(n);
  ex.parallel_for(n, [&](std::size_t v) { first_label[v] = kNoVertex; });

  ex.parallel_for(m, [&](std::size_t e) {
    if (g.edges[e].u == g.edges[e].v) return;  // loops never articulate
    const vid label = result.edge_component[e];
    for (const vid v : {g.edges[e].u, g.edges[e].v}) {
      std::atomic_ref first(first_label[v]);
      vid seen = first.load(std::memory_order_relaxed);
      if (seen == kNoVertex &&
          first.compare_exchange_strong(seen, label,
                                        std::memory_order_relaxed)) {
        continue;
      }
      if (seen == label) continue;
      std::atomic_ref art(result.is_articulation[v]);
      if (art.load(std::memory_order_relaxed) == 0) {
        art.store(1, std::memory_order_relaxed);
      }
    }
  });

  // --- Bridges: components holding exactly one edge. ------------------
  // The first edge to reach a block claims its slot; any other edge
  // marks the block multi-edged.
  std::span<eid> first_edge = ws.alloc<eid>(k);
  std::span<std::uint8_t> multi = ws.alloc<std::uint8_t>(k);
  ex.parallel_for(k, [&](std::size_t c) {
    first_edge[c] = kNoEdge;
    multi[c] = 0;
  });
  ex.parallel_for(m, [&](std::size_t e) {
    const vid c = result.edge_component[e];
    std::atomic_ref first(first_edge[c]);
    eid seen = first.load(std::memory_order_relaxed);
    if (seen == kNoEdge &&
        first.compare_exchange_strong(seen, static_cast<eid>(e),
                                      std::memory_order_relaxed)) {
      return;
    }
    std::atomic_ref many(multi[c]);
    if (many.load(std::memory_order_relaxed) == 0) {
      many.store(1, std::memory_order_relaxed);
    }
  });
  result.bridges.resize(m);
  const std::size_t bridge_count = pack_into(
      ex, ws, m,
      [&](std::size_t e) {
        // A single-edge component that is not a self-loop is a bridge.
        return multi[result.edge_component[e]] == 0 &&
               g.edges[e].u != g.edges[e].v;
      },
      [&](std::size_t dst, std::size_t e) {
        result.bridges[dst] = static_cast<eid>(e);
      });
  result.bridges.resize(bridge_count);
}

}  // namespace parbcc
