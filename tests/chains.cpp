#include "chains.hpp"

#include <algorithm>
#include <stdexcept>

namespace parbcc {

ChainDecomposition chain_decomposition(const EdgeList& g) {
  const vid n = g.n;
  const eid m = g.m();
  if (!g.validate()) {
    throw std::invalid_argument("chain_decomposition: invalid graph");
  }

  // Adjacency with edge ids.
  std::vector<std::vector<std::pair<vid, eid>>> adj(n);
  for (eid e = 0; e < m; ++e) {
    adj[g.edges[e].u].push_back({g.edges[e].v, e});
    adj[g.edges[e].v].push_back({g.edges[e].u, e});
  }

  // DFS forest: preorder, parents, and the DFS visit order.
  std::vector<vid> pre(n, 0);
  std::vector<vid> parent(n, kNoVertex);
  std::vector<eid> parent_edge(n, kNoEdge);
  std::vector<vid> order;
  std::vector<vid> component(n, kNoVertex);
  order.reserve(n);
  std::vector<std::pair<vid, std::size_t>> stack;
  vid counter = 1;
  vid num_components = 0;

  for (vid r = 0; r < n; ++r) {
    if (pre[r] != 0) continue;
    const vid comp = num_components++;
    pre[r] = counter++;
    parent[r] = r;
    component[r] = comp;
    order.push_back(r);
    stack.push_back({r, 0});
    while (!stack.empty()) {
      auto& [v, next] = stack.back();
      if (next < adj[v].size()) {
        const auto [w, e] = adj[v][next++];
        if (pre[w] == 0) {
          pre[w] = counter++;
          parent[w] = v;
          parent_edge[w] = e;
          component[w] = comp;
          order.push_back(w);
          stack.push_back({w, 0});
        }
        continue;
      }
      stack.pop_back();
    }
  }

  ChainDecomposition out;
  out.chain_of_edge.assign(m, kNoVertex);
  out.is_articulation.assign(n, 0);

  std::vector<std::uint8_t> visited(n, 0);
  std::vector<vid> chains_in_component(num_components, 0);
  for (const vid r : order) {
    if (parent[r] == r) visited[r] = 1;  // DFS roots start visited
  }

  // Walk vertices in DFS order; each back edge whose *ancestor*
  // endpoint is the current vertex starts a chain.
  for (const vid u : order) {
    for (const auto& [w, e] : adj[u]) {
      if (out.chain_of_edge[e] != kNoVertex) continue;      // consumed
      if (parent_edge[w] == e || parent_edge[u] == e) continue;  // tree
      if (pre[w] < pre[u]) continue;  // we are the descendant endpoint
      const vid chain = out.num_chains++;
      out.chain_of_edge[e] = chain;
      // The chain starts at u, so u counts as visited before the walk;
      // otherwise the walk could run past u and swallow bridges above.
      visited[u] = 1;
      vid x = w;
      while (!visited[x]) {
        visited[x] = 1;
        out.chain_of_edge[parent_edge[x]] = chain;
        x = parent[x];
      }
      const bool cycle = (x == u);
      out.chain_is_cycle.push_back(cycle ? 1 : 0);
      const vid idx_in_component = chains_in_component[component[u]]++;
      // Schmidt: the start of any cycle chain except the component's
      // first chain is a cut vertex.
      if (cycle && idx_in_component > 0) out.is_articulation[u] = 1;
    }
  }

  // Bridges: tree edges on no chain; their endpoints of degree >= 2
  // are cut vertices.
  for (eid e = 0; e < m; ++e) {
    if (out.chain_of_edge[e] == kNoVertex) out.bridges.push_back(e);
  }
  std::sort(out.bridges.begin(), out.bridges.end());
  for (const eid e : out.bridges) {
    for (const vid v : {g.edges[e].u, g.edges[e].v}) {
      if (adj[v].size() >= 2) out.is_articulation[v] = 1;
    }
  }
  return out;
}

}  // namespace parbcc
