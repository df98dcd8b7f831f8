#include "ear_decomposition.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "connectivity/union_find.hpp"
#include "eulertour/tree_computations.hpp"
#include "graph/csr.hpp"
#include "lca.hpp"
#include "scan/scan.hpp"
#include "spanning/bfs_tree.hpp"

namespace parbcc {

EarDecomposition ear_decomposition(Executor& ex, const EdgeList& g,
                                   vid root) {
  Workspace ws;
  const vid n = g.n;
  const eid m = g.m();
  if (n < 3 || !g.validate()) {
    throw std::invalid_argument(
        "ear_decomposition: need a simple graph with >= 3 vertices");
  }

  // Rooted spanning tree (BFS keeps the level machinery shallow).
  const Csr csr = Csr::build(ex, ws, g);
  const BfsTree bfs = bfs_tree(ex, ws, csr, {&root, 1});
  if (bfs.reached != n) {
    throw std::invalid_argument("ear_decomposition: graph disconnected");
  }
  RootedSpanningTree tree;
  tree.root = root;
  tree.parent = bfs.parent;
  tree.parent_edge = bfs.parent_edge;
  const ChildrenCsr children = build_children(ex, ws, tree.parent, root);
  const LevelStructure levels = build_levels(ex, children, root);
  preorder_and_size(ex, children, levels, root, tree.pre, tree.sub);
  const LcaIndex lca(ex, tree, children, levels);

  // Key every nontree edge by (depth of lca, nontree rank): ears with
  // shallower apexes come first, which puts every ear's endpoints on
  // earlier ears.
  std::vector<std::uint8_t> in_tree(m, 0);
  ex.parallel_for(n, [&](std::size_t v) {
    if (bfs.parent_edge[v] != kNoEdge) in_tree[bfs.parent_edge[v]] = 1;
  });
  std::vector<vid> nontree_rank(m);
  ex.parallel_for(m, [&](std::size_t e) {
    nontree_rank[e] = in_tree[e] ? 0 : 1;
  });
  const vid num_nontree = exclusive_scan(ex, ws, nontree_rank.data(),
                                         nontree_rank.data(), m, vid{0});

  constexpr std::uint64_t kInf = ~std::uint64_t{0};
  std::vector<std::uint64_t> key_of_nontree(num_nontree, kInf);
  std::vector<std::uint64_t> val(n, kInf);
  // Per-vertex gather over the CSR (no atomics needed: one writer per
  // vertex).
  ex.parallel_for(n, [&](std::size_t v) {
    const auto eids = csr.incident_edges(v);
    std::uint64_t best = kInf;
    for (const eid e : eids) {
      if (in_tree[e]) continue;
      const vid apex = lca.lca(g.edges[e].u, g.edges[e].v);
      const std::uint64_t key =
          (static_cast<std::uint64_t>(levels.depth[apex]) << 32) |
          nontree_rank[e];
      best = std::min(best, key);
    }
    val[v] = best;
  });
  ex.parallel_for(m, [&](std::size_t e) {
    if (in_tree[e]) return;
    const vid apex = lca.lca(g.edges[e].u, g.edges[e].v);
    key_of_nontree[nontree_rank[e]] =
        (static_cast<std::uint64_t>(levels.depth[apex]) << 32) |
        nontree_rank[e];
  });

  // Subtree minimum: tree edge (v, p(v)) joins the ear of the smallest
  // covering key.  A covering nontree edge has its apex strictly above
  // v, so a winning key with depth >= depth(v) means a bridge.
  for (vid d = levels.num_levels; d-- > 0;) {
    const auto level = levels.level(d);
    const auto body = [&](std::size_t k) {
      const vid v = level[k];
      std::uint64_t acc = val[v];
      for (const vid c : children.children(v)) acc = std::min(acc, val[c]);
      val[v] = acc;
    };
    if (level.size() < 2048) {
      for (std::size_t k = 0; k < level.size(); ++k) body(k);
    } else {
      ex.parallel_for(level.size(), body);
    }
  }

  // Ear numbers: nontree edges sorted by key (keys are unique — the
  // low bits carry the nontree rank).
  std::vector<vid> ear_number(num_nontree);
  {
    std::vector<std::uint64_t> order(key_of_nontree);
    std::sort(order.begin(), order.end());
    std::map<std::uint64_t, vid> position;
    for (vid i = 0; i < num_nontree; ++i) position.emplace(order[i], i);
    for (vid r = 0; r < num_nontree; ++r) {
      ear_number[r] = position.at(key_of_nontree[r]);
    }
  }

  EarDecomposition out;
  out.num_ears = num_nontree;
  out.ear_of_edge.assign(m, kNoVertex);
  for (vid v = 0; v < n; ++v) {
    if (v == root) continue;
    const std::uint64_t key = val[v];
    if (key == kInf || (key >> 32) >= levels.depth[v]) {
      throw std::invalid_argument(
          "ear_decomposition: graph has a bridge (not 2-edge-connected)");
    }
    out.ear_of_edge[bfs.parent_edge[v]] =
        ear_number[static_cast<vid>(key & 0xffffffffu)];
  }
  ex.parallel_for(m, [&](std::size_t e) {
    if (!in_tree[e]) out.ear_of_edge[e] = ear_number[nontree_rank[e]];
  });

  // Count closed ears (valid, but callers interested in openness —
  // e.g. st-numbering — need to know).
  {
    std::vector<vid> edge_count(out.num_ears, 0);
    std::vector<vid> vertex_count(out.num_ears, 0);
    std::map<std::pair<vid, vid>, int> seen;  // (ear, vertex) dedup
    for (eid e = 0; e < m; ++e) {
      const vid id = out.ear_of_edge[e];
      ++edge_count[id];
      for (const vid v : {g.edges[e].u, g.edges[e].v}) {
        if (seen.emplace(std::make_pair(id, v), 0).second) {
          ++vertex_count[id];
        }
      }
    }
    for (vid id = 1; id < out.num_ears; ++id) {
      // A path has one more vertex than edges; a cycle has equal.
      if (vertex_count[id] == edge_count[id]) ++out.num_closed_ears;
    }
  }

  if (!is_ear_decomposition(g, out)) {
    throw std::invalid_argument(
        "ear_decomposition: input is not 2-edge-connected");
  }
  return out;
}

bool is_ear_decomposition(const EdgeList& g, const EarDecomposition& ears,
                          bool require_open) {
  const eid m = g.m();
  if (ears.ear_of_edge.size() != m || ears.num_ears == 0) return false;
  std::vector<std::vector<eid>> by_ear(ears.num_ears);
  for (eid e = 0; e < m; ++e) {
    const vid id = ears.ear_of_edge[e];
    if (id >= ears.num_ears) return false;
    by_ear[id].push_back(e);
  }

  std::vector<std::uint8_t> visited(g.n, 0);
  std::map<vid, int> degree;  // within the current ear
  for (vid id = 0; id < ears.num_ears; ++id) {
    const auto& ear = by_ear[id];
    if (ear.empty()) return false;
    degree.clear();
    UnionFind uf(g.n);
    std::size_t merges = 0;
    for (const eid e : ear) {
      ++degree[g.edges[e].u];
      ++degree[g.edges[e].v];
      if (uf.unite(g.edges[e].u, g.edges[e].v)) ++merges;
    }
    if (merges != degree.size() - 1) return false;  // must be connected

    if (id == 0) {
      // E0: simple cycle over fresh vertices.
      if (degree.size() != ear.size()) return false;
      for (const auto& [v, d] : degree) {
        if (d != 2 || visited[v]) return false;
      }
    } else if (degree.size() == ear.size() + 1) {
      // Open ear: simple path, both (distinct) endpoints visited,
      // internal vertices fresh.
      vid endpoints = 0;
      for (const auto& [v, d] : degree) {
        if (d == 1) {
          ++endpoints;
          if (!visited[v]) return false;
        } else if (d == 2) {
          if (visited[v]) return false;
        } else {
          return false;
        }
      }
      if (endpoints != 2) return false;
    } else if (degree.size() == ear.size()) {
      // Closed ear: simple cycle attached at exactly one visited vertex.
      if (require_open) return false;
      vid attachments = 0;
      for (const auto& [v, d] : degree) {
        if (d != 2) return false;
        if (visited[v]) ++attachments;
      }
      if (attachments != 1) return false;
    } else {
      return false;
    }
    for (const auto& [v, d] : degree) visited[v] = 1;
  }
  return true;
}

}  // namespace parbcc
