#include "test_util.hpp"

#include <algorithm>

namespace parbcc::testutil {
namespace {

struct RefState {
  const EdgeList* g;
  std::vector<std::vector<std::pair<vid, eid>>> adj;  // (neighbour, edge)
  std::vector<vid> disc, low;
  std::vector<eid> edge_stack;
  std::vector<vid> edge_comp;
  vid timer = 0;
  vid next_label = 0;

  void dfs(vid v, eid parent_edge) {
    disc[v] = low[v] = timer++;
    for (const auto& [w, e] : adj[v]) {
      if (e == parent_edge || w == v) continue;
      if (disc[w] == kNoVertex) {
        edge_stack.push_back(e);
        dfs(w, e);
        low[v] = std::min(low[v], low[w]);
        if (low[w] >= disc[v]) {
          const vid label = next_label++;
          eid top;
          do {
            top = edge_stack.back();
            edge_stack.pop_back();
            edge_comp[top] = label;
          } while (top != e);
        }
      } else if (disc[w] < disc[v]) {
        edge_stack.push_back(e);
        low[v] = std::min(low[v], disc[w]);
      }
    }
  }
};

}  // namespace

RefBcc reference_bcc(const EdgeList& g) {
  RefState s;
  s.g = &g;
  s.adj.resize(g.n);
  for (eid e = 0; e < g.m(); ++e) {
    s.adj[g.edges[e].u].push_back({g.edges[e].v, e});
    s.adj[g.edges[e].v].push_back({g.edges[e].u, e});
  }
  s.disc.assign(g.n, kNoVertex);
  s.low.assign(g.n, 0);
  s.edge_comp.assign(g.m(), kNoVertex);
  for (vid r = 0; r < g.n; ++r) {
    if (s.disc[r] == kNoVertex) s.dfs(r, kNoEdge);
  }
  for (eid e = 0; e < g.m(); ++e) {
    if (s.edge_comp[e] == kNoVertex) s.edge_comp[e] = s.next_label++;
  }
  return {std::move(s.edge_comp), s.next_label};
}

vid component_count(const EdgeList& g) {
  UnionFind uf(g.n);
  vid count = g.n;
  for (const Edge& e : g.edges) {
    if (e.u != e.v && uf.unite(e.u, e.v)) --count;
  }
  return count;
}

std::vector<vid> connected_components_seq(vid n, std::span<const Edge> edges) {
  UnionFind uf(n);
  for (const Edge& e : edges) uf.unite(e.u, e.v);
  // Vertices ascend, so the first one seen under a root is its minimum.
  std::vector<vid> min_of_root(n, kNoVertex);
  for (vid v = 0; v < n; ++v) {
    const vid r = uf.find(v);
    if (min_of_root[r] == kNoVertex) min_of_root[r] = v;
  }
  std::vector<vid> out(n);
  for (vid v = 0; v < n; ++v) out[v] = min_of_root[uf.find(v)];
  return out;
}

std::vector<std::uint8_t> brute_force_articulation(const EdgeList& g) {
  const vid base = component_count(g);
  std::vector<std::uint8_t> out(g.n, 0);
  for (vid v = 0; v < g.n; ++v) {
    UnionFind uf(g.n);
    vid count = g.n - 1;  // v removed
    for (const Edge& e : g.edges) {
      if (e.u == v || e.v == v || e.u == e.v) continue;
      if (uf.unite(e.u, e.v)) --count;
    }
    out[v] = count >= base + 1 ? 1 : 0;
  }
  return out;
}

std::vector<eid> brute_force_bridges(const EdgeList& g) {
  const vid base = component_count(g);
  std::vector<eid> out;
  for (eid skip = 0; skip < g.m(); ++skip) {
    if (g.edges[skip].u == g.edges[skip].v) continue;
    UnionFind uf(g.n);
    vid count = g.n;
    for (eid e = 0; e < g.m(); ++e) {
      if (e == skip || g.edges[e].u == g.edges[e].v) continue;
      if (uf.unite(g.edges[e].u, g.edges[e].v)) --count;
    }
    if (count > base) out.push_back(skip);
  }
  return out;
}

bool same_partition(std::span<const vid> a, std::span<const vid> b) {
  if (a.size() != b.size()) return false;
  std::map<vid, vid> a2b, b2a;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto [ita, inserted_a] = a2b.try_emplace(a[i], b[i]);
    if (!inserted_a && ita->second != b[i]) return false;
    const auto [itb, inserted_b] = b2a.try_emplace(b[i], a[i]);
    if (!inserted_b && itb->second != a[i]) return false;
  }
  return true;
}

}  // namespace parbcc::testutil
