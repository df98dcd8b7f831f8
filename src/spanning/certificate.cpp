#include "spanning/certificate.hpp"

#include <atomic>
#include <stdexcept>

#include "graph/csr.hpp"
#include "util/concat.hpp"
#include "util/padded.hpp"

namespace parbcc {

SparseCertificate sparse_certificate_vertex(Executor& ex, Workspace& ws,
                                            const EdgeList& g, unsigned k) {
  if (k == 0) {
    throw std::invalid_argument("sparse_certificate_vertex: k >= 1");
  }
  const Csr csr = Csr::build(ex, ws, g);
  SparseCertificate out;
  out.forest_offsets.push_back(0);
  std::vector<std::uint8_t> used(g.m(), 0);

  const int p = ex.threads();
  std::vector<std::atomic<vid>> parent(g.n);
  std::vector<eid> parent_edge(g.n, kNoEdge);
  std::vector<vid> level(g.n, 0);
  std::vector<Padded<std::vector<vid>>> local(static_cast<std::size_t>(p));
  // One frontier buffer serves every component and round: a frontier
  // never exceeds n, and each traversal drains its own entries.
  std::vector<vid> frontier(g.n);
  std::vector<std::size_t> concat_offset(static_cast<std::size_t>(p) + 1);

  for (unsigned round = 0; round < k; ++round) {
    ex.parallel_for(g.n, [&](std::size_t v) {
      parent[v].store(kNoVertex, std::memory_order_relaxed);
      parent_edge[v] = kNoEdge;
    });
    // BFS forest over the unused edges: every still-unvisited vertex in
    // id order seeds a level-synchronous traversal of its component.
    for (vid r = 0; r < g.n; ++r) {
      if (parent[r].load(std::memory_order_relaxed) != kNoVertex) continue;
      parent[r].store(r, std::memory_order_relaxed);
      level[r] = 0;
      frontier[0] = r;
      std::size_t frontier_size = 1;
      while (frontier_size != 0) {
        for (auto& buf : local) buf.value.clear();
        ex.parallel_blocks(
            frontier_size, [&](int tid, std::size_t begin,
                               std::size_t end) {
              auto& next = local[static_cast<std::size_t>(tid)].value;
              for (std::size_t i = begin; i < end; ++i) {
                const vid v = frontier[i];
                const auto nbrs = csr.neighbors(v);
                const auto eids = csr.incident_edges(v);
                for (std::size_t j = 0; j < nbrs.size(); ++j) {
                  if (used[eids[j]]) continue;
                  vid expected = kNoVertex;
                  if (parent[nbrs[j]].compare_exchange_strong(
                          expected, v, std::memory_order_acq_rel)) {
                    // CAS winner is the sole writer of these slots.
                    parent_edge[nbrs[j]] = eids[j];
                    level[nbrs[j]] = level[v] + 1;
                    next.push_back(nbrs[j]);
                  }
                }
              }
            });
        frontier_size = concat_thread_buffers(
            ex,
            [&](int t) -> const std::vector<vid>& {
              return local[static_cast<std::size_t>(t)].value;
            },
            std::span<std::size_t>(concat_offset), frontier.data());
      }
    }
    // Harvest this round's forest and retire its edges.
    for (vid v = 0; v < g.n; ++v) {
      if (parent_edge[v] != kNoEdge) {
        used[parent_edge[v]] = 1;
        out.edges.push_back(parent_edge[v]);
      }
    }
    out.forest_offsets.push_back(static_cast<eid>(out.edges.size()));
    if (round == 0) {
      // Keep F1's exact BFS structure for the omitted-edge scatter
      // rule (see the header); later rounds reuse the arrays.
      out.f1_level = level;
      out.f1_parent_edge = parent_edge;
    }
  }
  return out;
}

}  // namespace parbcc
