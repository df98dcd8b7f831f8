#include "forest.hpp"

#include <deque>

#include "connectivity/union_find.hpp"

namespace parbcc {

std::vector<eid> sequential_spanning_forest(vid n,
                                            std::span<const Edge> edges) {
  UnionFind uf(n);
  std::vector<eid> out;
  for (eid i = 0; i < edges.size(); ++i) {
    if (uf.unite(edges[i].u, edges[i].v)) out.push_back(i);
  }
  return out;
}

SeqBfsResult sequential_bfs(const Csr& g, vid root) {
  const vid n = g.num_vertices();
  SeqBfsResult out;
  out.parent.assign(n, kNoVertex);
  out.level.assign(n, kNoVertex);
  if (n == 0) return out;
  out.parent[root] = root;
  out.level[root] = 0;
  out.reached = 1;
  std::deque<vid> queue{root};
  while (!queue.empty()) {
    const vid v = queue.front();
    queue.pop_front();
    for (const vid w : g.neighbors(v)) {
      if (out.parent[w] == kNoVertex) {
        out.parent[w] = v;
        out.level[w] = out.level[v] + 1;
        ++out.reached;
        queue.push_back(w);
      }
    }
  }
  return out;
}

bool is_forest(vid n, std::span<const Edge> edges,
               std::span<const eid> subset) {
  UnionFind uf(n);
  for (const eid i : subset) {
    if (!uf.unite(edges[i].u, edges[i].v)) return false;
  }
  return true;
}

bool is_valid_rooted_tree(std::span<const vid> parent, vid root) {
  const std::size_t n = parent.size();
  if (root >= n || parent[root] != root) return false;
  // Walk to the root from every vertex, marking the path's "epoch" to
  // detect cycles in O(n) total (each vertex resolved once).
  std::vector<vid> state(n, kNoVertex);  // kNoVertex = unvisited; else epoch id
  std::vector<bool> ok(n, false);
  ok[root] = true;
  state[root] = root;
  for (std::size_t start = 0; start < n; ++start) {
    if (parent[start] == kNoVertex || state[start] != kNoVertex) continue;
    // Follow parents, marking with this walk's epoch.
    std::vector<vid> path;
    vid v = static_cast<vid>(start);
    while (state[v] == kNoVertex) {
      if (parent[v] == kNoVertex) return false;  // dangles off the tree
      state[v] = static_cast<vid>(start);
      path.push_back(v);
      v = parent[v];
    }
    if (state[v] == static_cast<vid>(start) && !ok[v]) {
      return false;  // hit our own path: a cycle
    }
    if (!ok[v]) return false;  // reached a vertex known to be broken
    for (const vid w : path) ok[w] = true;
  }
  return true;
}

}  // namespace parbcc
