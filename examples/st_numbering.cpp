#include "st_numbering.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace parbcc {
namespace {

struct DfsData {
  std::vector<vid> pre;        // preorder number, 1-based
  std::vector<vid> parent;     // parent vertex
  std::vector<vid> low;        // lowpoint VERTEX (minimum preorder reachable)
  std::vector<vid> order;      // vertices in preorder
};

/// Iterative DFS from s whose first tree edge is (s, t); computes
/// preorder, parents and lowpoint vertices, and verifies biconnectivity
/// on the way (root with one child, no child subtree trapped below its
/// parent).
DfsData dfs_with_first_child(const EdgeList& g,
                             const std::vector<std::vector<std::pair<vid, eid>>>& adj,
                             vid s, vid t) {
  const vid n = g.n;
  DfsData d;
  d.pre.assign(n, 0);
  d.parent.assign(n, kNoVertex);
  d.low.assign(n, kNoVertex);
  d.order.reserve(n);

  struct Frame {
    vid v;
    eid parent_edge;
    std::size_t next;
  };
  std::vector<Frame> stack;
  vid counter = 1;

  d.pre[s] = counter++;
  d.parent[s] = s;
  d.low[s] = s;
  d.order.push_back(s);
  stack.push_back({s, kNoEdge, 0});
  vid root_children = 0;

  while (!stack.empty()) {
    Frame& frame = stack.back();
    const vid v = frame.v;
    if (frame.next < adj[v].size()) {
      const auto [w, e] = adj[v][frame.next++];
      if (e == frame.parent_edge || w == v) continue;
      if (d.pre[w] == 0) {
        if (v == s && ++root_children > 1) {
          throw std::invalid_argument(
              "st_number: s is an articulation point (graph not "
              "biconnected)");
        }
        d.pre[w] = counter++;
        d.parent[w] = v;
        d.low[w] = w;
        d.order.push_back(w);
        stack.push_back({w, e, 0});
      } else if (d.pre[w] < d.pre[v]) {
        if (d.pre[w] < d.pre[d.low[v]]) d.low[v] = w;
      }
      continue;
    }
    stack.pop_back();
    if (stack.empty()) break;
    const vid u = stack.back().v;
    if (d.pre[d.low[v]] < d.pre[d.low[u]]) d.low[u] = d.low[v];
    // Biconnectivity: a non-root parent must see every child subtree
    // escape above it.
    if (u != s && d.pre[d.low[v]] >= d.pre[u]) {
      throw std::invalid_argument(
          "st_number: articulation point found (graph not biconnected)");
    }
  }
  if (d.order.size() != n) {
    throw std::invalid_argument("st_number: graph is disconnected");
  }
  if (n >= 2 && d.order[1] != t) {
    throw std::logic_error("st_number: t was not the first child");
  }
  return d;
}

}  // namespace

StNumbering st_number(const EdgeList& g, vid s, vid t) {
  const vid n = g.n;
  if (s >= n || t >= n || s == t) {
    throw std::invalid_argument("st_number: bad s/t");
  }
  if (!g.validate()) {
    throw std::invalid_argument("st_number: invalid graph (self-loops?)");
  }
  bool st_edge = false;
  for (const Edge& e : g.edges) {
    if ((e.u == s && e.v == t) || (e.u == t && e.v == s)) {
      st_edge = true;
      break;
    }
  }
  if (!st_edge) {
    throw std::invalid_argument("st_number: {s, t} must be an edge");
  }

  StNumbering out;
  out.number.assign(n, 0);
  if (n == 2) {
    out.number[s] = 1;
    out.number[t] = 2;
    return out;
  }

  // Adjacency with t forced first at s.
  std::vector<std::vector<std::pair<vid, eid>>> adj(n);
  for (eid e = 0; e < g.m(); ++e) {
    adj[g.edges[e].u].push_back({g.edges[e].v, e});
    adj[g.edges[e].v].push_back({g.edges[e].u, e});
  }
  for (std::size_t k = 0; k < adj[s].size(); ++k) {
    if (adj[s][k].first == t) {
      std::swap(adj[s][0], adj[s][k]);
      break;
    }
  }

  const DfsData d = dfs_with_first_child(g, adj, s, t);

  // Tarjan's streamlined Even-Tarjan construction: keep an ordered
  // list, initially [s, t]; insert every other vertex in preorder
  // either directly before or directly after its parent, steered by
  // the +/- sign of its lowpoint vertex.  The final list order is an
  // st-order.
  std::vector<vid> next(n, kNoVertex), prev(n, kNoVertex);
  std::vector<std::int8_t> sign(n, 0);  // -1 or +1
  next[s] = t;
  prev[t] = s;
  sign[s] = -1;

  const auto insert_before = [&](vid v, vid at) {
    const vid p = prev[at];
    prev[v] = p;
    next[v] = at;
    prev[at] = v;
    if (p != kNoVertex) next[p] = v;
  };
  const auto insert_after = [&](vid v, vid at) {
    const vid nx = next[at];
    next[v] = nx;
    prev[v] = at;
    next[at] = v;
    if (nx != kNoVertex) prev[nx] = v;
  };

  for (const vid v : d.order) {
    if (v == s || v == t) continue;
    const vid p = d.parent[v];
    if (sign[d.low[v]] < 0) {
      insert_before(v, p);
      sign[p] = +1;
    } else {
      insert_after(v, p);
      sign[p] = -1;
    }
  }

  // Walk the list; the head may have moved in front of s? No: nothing
  // is ever inserted before s, because insert_before targets a parent,
  // and s's children insert relative to s only via sign(low)=..., with
  // low(child of s) == s and sign(s) flipping.  Still, find the head
  // defensively.
  vid head = s;
  while (prev[head] != kNoVertex) head = prev[head];
  vid counter = 1;
  for (vid v = head; v != kNoVertex; v = next[v]) {
    out.number[v] = counter++;
  }
  if (counter != n + 1) {
    throw std::logic_error("st_number: list walk did not cover all vertices");
  }
  return out;
}

bool is_valid_st_numbering(const EdgeList& g, vid s, vid t,
                           const StNumbering& st) {
  const vid n = g.n;
  if (st.number.size() != n) return false;
  if (st.number[s] != 1 || st.number[t] != n) return false;
  std::vector<bool> used(n + 1, false);
  for (vid v = 0; v < n; ++v) {
    const vid x = st.number[v];
    if (x < 1 || x > n || used[x]) return false;
    used[x] = true;
  }
  std::vector<std::uint8_t> has_lower(n, 0), has_higher(n, 0);
  for (const Edge& e : g.edges) {
    if (e.u == e.v) continue;
    const vid a = st.number[e.u] < st.number[e.v] ? e.u : e.v;
    const vid b = a == e.u ? e.v : e.u;
    has_higher[a] = 1;
    has_lower[b] = 1;
  }
  for (vid v = 0; v < n; ++v) {
    if (v != s && !has_lower[v]) return false;
    if (v != t && !has_higher[v]) return false;
  }
  return true;
}

}  // namespace parbcc
