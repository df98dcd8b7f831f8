#include "core/hopcroft_tarjan.hpp"

#include <algorithm>
#include <cassert>

namespace parbcc {
namespace {

struct Frame {
  vid v;
  eid parent_edge;  // edge id leading here; kNoEdge at a DFS root
  eid next;         // cursor into v's adjacency
};

}  // namespace

BccResult hopcroft_tarjan_bcc(const EdgeList& g, const Csr& csr,
                              bool cut_info, Trace* trace) {
  const vid n = g.n;
  const eid m = g.m();
  BccResult result;
  result.edge_component.assign(m, kNoVertex);
  if (cut_info) result.is_articulation.assign(n, 0);

  TraceSpan dfs_span(trace, "dfs");
  std::vector<vid> disc(n, kNoVertex);
  std::vector<vid> low(n, 0);
  std::vector<Frame> stack;
  std::vector<eid> edge_stack;
  stack.reserve(64);
  edge_stack.reserve(64);

  vid timer_v = 0;
  vid next_label = 0;

  for (vid r = 0; r < n; ++r) {
    if (disc[r] != kNoVertex) continue;
    vid root_blocks = 0;
    disc[r] = low[r] = timer_v++;
    stack.push_back({r, kNoEdge, 0});

    while (!stack.empty()) {
      Frame& frame = stack.back();
      const vid v = frame.v;
      const auto nbrs = csr.neighbors(v);
      const auto eids = csr.incident_edges(v);

      if (frame.next < nbrs.size()) {
        const eid k = frame.next++;
        const vid w = nbrs[k];
        const eid e = eids[k];
        if (e == frame.parent_edge || w == v) continue;  // tree edge up / loop
        if (disc[w] == kNoVertex) {
          edge_stack.push_back(e);
          disc[w] = low[w] = timer_v++;
          stack.push_back({w, e, 0});
        } else if (disc[w] < disc[v]) {
          // Back edge to a proper ancestor (or a parallel copy of the
          // tree edge); it opens no new vertex but joins the cycle.
          edge_stack.push_back(e);
          if (disc[w] < low[v]) low[v] = disc[w];
        }
        // disc[w] > disc[v]: the edge was already handled from w.
        continue;
      }

      // v's adjacency exhausted: retreat.
      const eid up_edge = frame.parent_edge;
      stack.pop_back();
      if (stack.empty()) break;  // DFS root finished
      Frame& parent = stack.back();
      const vid u = parent.v;
      if (low[v] < low[u]) low[u] = low[v];
      if (low[v] >= disc[u]) {
        // u separates v's subtree: everything stacked above (and
        // including) the tree edge u-v is one biconnected component.
        // A non-root u meets it and its own parent edge's block; the
        // root is a cut vertex once a second block pops at it.  A block
        // whose top edge is u-v holds that edge alone: a bridge.
        if (cut_info) {
          if (stack.size() > 1 || ++root_blocks == 2) {
            result.is_articulation[u] = 1;
          }
          if (edge_stack.back() == up_edge) result.bridges.push_back(up_edge);
        }
        const vid label = next_label++;
        for (;;) {
          assert(!edge_stack.empty());
          const eid e = edge_stack.back();
          edge_stack.pop_back();
          result.edge_component[e] = label;
          if (e == up_edge) break;
        }
      }
    }
    assert(edge_stack.empty());
  }

  // Self-loops never enter the DFS; give each its own component so the
  // labeling is total even on unsanitized inputs.
  for (eid e = 0; e < m; ++e) {
    if (result.edge_component[e] == kNoVertex) {
      assert(g.edges[e].u == g.edges[e].v);
      result.edge_component[e] = next_label++;
    }
  }

  result.num_components = next_label;
  std::sort(result.bridges.begin(), result.bridges.end());
  return result;
}

}  // namespace parbcc
