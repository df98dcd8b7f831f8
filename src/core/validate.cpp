#include "core/validate.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <vector>

#include "connectivity/union_find.hpp"
#include "core/hopcroft_tarjan.hpp"
#include "graph/csr.hpp"

namespace parbcc {
namespace {

std::string fmt(const char* what, std::uint64_t a, std::uint64_t b) {
  return std::string(what) + " (" + std::to_string(a) + ", " +
         std::to_string(b) + ")";
}

/// Edges of one block stay connected after deleting any single vertex
/// — exact check used for small blocks.
bool block_biconnected_brute(const EdgeList& g,
                             const std::vector<eid>& block_edges) {
  std::set<vid> vertices;
  for (const eid e : block_edges) {
    vertices.insert(g.edges[e].u);
    vertices.insert(g.edges[e].v);
  }
  if (block_edges.size() == 1) return true;  // a bridge block
  for (const vid removed : vertices) {
    // Union the surviving edges; all surviving vertices must join up.
    std::map<vid, vid> local;
    for (const vid v : vertices) {
      if (v != removed) local.emplace(v, static_cast<vid>(local.size()));
    }
    UnionFind uf(static_cast<vid>(local.size()));
    vid components = static_cast<vid>(local.size());
    for (const eid e : block_edges) {
      const vid u = g.edges[e].u;
      const vid v = g.edges[e].v;
      if (u == removed || v == removed) continue;
      if (uf.unite(local[u], local[v])) --components;
    }
    if (components != 1) return false;
  }
  return true;
}

}  // namespace

ValidationReport validate_bcc(Executor& ex, const EdgeList& g,
                              const BccResult& result) {
  ValidationReport report;
  const auto fail = [&](std::string msg) {
    report.ok = false;
    report.message = std::move(msg);
    return report;
  };

  const eid m = g.m();
  const vid k = result.num_components;
  if (result.edge_component.size() != m) {
    return fail("label array size != edge count");
  }

  // (1) totality and contiguity.
  std::vector<std::uint8_t> used(k, 0);
  for (eid e = 0; e < m; ++e) {
    const vid c = result.edge_component[e];
    if (c >= k) return fail(fmt("label out of range at edge", e, c));
    used[c] = 1;
  }
  for (vid c = 0; c < k; ++c) {
    if (!used[c]) return fail(fmt("unused label", c, k));
  }
  if (m == 0) return report;

  // Bucket edges by block.
  std::vector<std::vector<eid>> blocks(k);
  for (eid e = 0; e < m; ++e) blocks[result.edge_component[e]].push_back(e);

  // (2) + (3): every block is a connected, biconnected subgraph.
  constexpr std::size_t kBruteCap = 64;
  // CSR staging for the large-block checks and check (5), reused.
  Workspace ws;
  for (vid c = 0; c < k; ++c) {
    const auto& block = blocks[c];
    if (block.size() == 1) continue;  // bridge or self-loop: fine
    if (block.size() <= kBruteCap) {
      if (!block_biconnected_brute(g, block)) {
        return fail(fmt("block fails vertex-deletion check", c,
                        block.size()));
      }
      continue;
    }
    // Large block: extract the subgraph and check with the (separately
    // brute-force-verified) sequential Hopcroft-Tarjan.
    std::map<vid, vid> local;
    EdgeList sub;
    for (const eid e : block) {
      for (const vid v : {g.edges[e].u, g.edges[e].v}) {
        local.emplace(v, static_cast<vid>(local.size()));
      }
    }
    sub.n = static_cast<vid>(local.size());
    sub.edges.reserve(block.size());
    for (const eid e : block) {
      sub.edges.push_back({local[g.edges[e].u], local[g.edges[e].v]});
    }
    const Csr csr = Csr::build(ex, ws, sub);
    const BccResult ht = hopcroft_tarjan_bcc(sub, csr);
    if (ht.num_components != 1) {
      return fail(fmt("block is not biconnected", c, ht.num_components));
    }
  }

  // (4) block-vertex incidence graph must be a forest (two blocks can
  // share at most one vertex, and no cyclic chain of sharings).
  {
    std::vector<std::pair<vid, vid>> incidences;
    incidences.reserve(2 * m);
    for (eid e = 0; e < m; ++e) {
      const vid c = result.edge_component[e];
      incidences.push_back({c, g.edges[e].u});
      incidences.push_back({c, g.edges[e].v});
    }
    std::sort(incidences.begin(), incidences.end());
    incidences.erase(std::unique(incidences.begin(), incidences.end()),
                     incidences.end());
    UnionFind uf(k + g.n);
    for (const auto& [c, v] : incidences) {
      if (!uf.unite(c, k + v)) {
        return fail(fmt("blocks share two vertices near block", c, v));
      }
    }
  }

  // (5) fundamental cycles are monochromatic: BFS forest, then walk
  // each nontree edge's tree path comparing labels.
  {
    const Csr csr = Csr::build(ex, ws, g);
    std::vector<vid> parent(g.n, kNoVertex);
    std::vector<eid> parent_edge(g.n, kNoEdge);
    std::vector<vid> depth(g.n, 0);
    std::vector<std::uint8_t> in_tree(m, 0);
    for (vid r = 0; r < g.n; ++r) {
      if (parent[r] != kNoVertex) continue;
      parent[r] = r;
      std::deque<vid> queue{r};
      while (!queue.empty()) {
        const vid v = queue.front();
        queue.pop_front();
        const auto nbrs = csr.neighbors(v);
        const auto eids = csr.incident_edges(v);
        for (std::size_t j = 0; j < nbrs.size(); ++j) {
          if (parent[nbrs[j]] == kNoVertex) {
            parent[nbrs[j]] = v;
            parent_edge[nbrs[j]] = eids[j];
            in_tree[eids[j]] = 1;
            depth[nbrs[j]] = depth[v] + 1;
            queue.push_back(nbrs[j]);
          }
        }
      }
    }
    for (eid e = 0; e < m; ++e) {
      if (in_tree[e] || g.edges[e].u == g.edges[e].v) continue;
      const vid label = result.edge_component[e];
      vid a = g.edges[e].u;
      vid b = g.edges[e].v;
      while (a != b) {
        vid& deeper = depth[a] >= depth[b] ? a : b;
        if (result.edge_component[parent_edge[deeper]] != label) {
          return fail(fmt("fundamental cycle is not monochromatic at edge",
                          e, parent_edge[deeper]));
        }
        deeper = parent[deeper];
      }
    }
  }

  // Cut info consistency, when present.
  if (!result.is_articulation.empty()) {
    std::vector<vid> first(g.n, kNoVertex);
    std::vector<std::uint8_t> art(g.n, 0);
    for (eid e = 0; e < m; ++e) {
      if (g.edges[e].u == g.edges[e].v) continue;
      const vid c = result.edge_component[e];
      for (const vid v : {g.edges[e].u, g.edges[e].v}) {
        if (first[v] == kNoVertex) {
          first[v] = c;
        } else if (first[v] != c) {
          art[v] = 1;
        }
      }
    }
    for (vid v = 0; v < g.n; ++v) {
      if (art[v] != result.is_articulation[v]) {
        return fail(fmt("articulation flag mismatch at vertex", v, art[v]));
      }
    }
    std::vector<eid> bridges;
    for (vid c = 0; c < k; ++c) {
      if (blocks[c].size() == 1) {
        const eid e = blocks[c][0];
        if (g.edges[e].u != g.edges[e].v) bridges.push_back(e);
      }
    }
    std::sort(bridges.begin(), bridges.end());
    if (bridges != result.bridges) {
      return fail(fmt("bridge list mismatch", bridges.size(),
                      result.bridges.size()));
    }
  }

  return report;
}

}  // namespace parbcc
