#include "augmentation.hpp"

#include <stdexcept>

#include "connectivity/components.hpp"
#include "core/block_cut_tree.hpp"

namespace parbcc {

std::vector<Edge> biconnectivity_augmentation(Executor& ex, const EdgeList& g,
                                              const BccResult& result) {
  if (g.n < 3) {
    throw std::invalid_argument(
        "biconnectivity_augmentation: need at least 3 vertices");
  }
  Workspace ws;
  const BlockCutTree tree =
      build_block_cut_tree(ex, ws, g, result.edge_component,
                           result.num_components, result.is_articulation);
  std::vector<vid> comp(g.n);
  connected_components(ex, ws, g.n, g.edges, comp);

  // Group attachment vertices by connected component.
  //  - component with >= 2 blocks: one non-cut vertex per leaf block
  //    (the leaf's cut vertex keeps the remainder attached if the
  //    chosen vertex is ever removed);
  //  - component that is a single block: two distinct vertices, so the
  //    component hangs off the ring by two disjoint contacts;
  //  - isolated vertex: itself (a ring node already has two edges).
  std::vector<std::vector<vid>> per_comp(g.n);
  std::vector<vid> blocks_in_comp(g.n, 0);
  for (vid b = 0; b < tree.num_blocks; ++b) {
    ++blocks_in_comp[comp[tree.vertices_of_block(b)[0]]];
  }
  for (vid b = 0; b < tree.num_blocks; ++b) {
    const auto members = tree.vertices_of_block(b);
    const vid c = comp[members[0]];
    if (blocks_in_comp[c] == 1) {
      // Island block: wire in two of its vertices back to back.
      per_comp[c].push_back(members[0]);
      per_comp[c].push_back(members[1]);
      continue;
    }
    if (!tree.is_leaf_block(b)) continue;
    for (const vid v : members) {
      if (tree.cut_node_of[v] == kNoVertex) {
        per_comp[c].push_back(v);
        break;
      }
    }
  }
  {
    std::vector<std::uint8_t> has_edge(g.n, 0);
    for (const Edge& e : g.edges) {
      has_edge[e.u] = 1;
      has_edge[e.v] = 1;
    }
    for (vid v = 0; v < g.n; ++v) {
      if (!has_edge[v]) per_comp[comp[v]].push_back(v);
    }
  }

  std::vector<vid> attachments;
  vid num_components = 0;
  for (vid c = 0; c < g.n; ++c) {
    if (comp[c] != c) continue;
    ++num_components;
    attachments.insert(attachments.end(), per_comp[c].begin(),
                       per_comp[c].end());
  }

  std::vector<Edge> added;
  // Already biconnected: one component, one block, nothing isolated.
  if (num_components == 1 && tree.num_blocks == 1 &&
      tree.num_cut_nodes == 0 && attachments.size() == 2 &&
      g.m() > 0) {
    return added;
  }
  if (attachments.size() < 2) return added;
  for (std::size_t i = 0; i + 1 < attachments.size(); ++i) {
    added.push_back({attachments[i], attachments[i + 1]});
  }
  if (attachments.size() > 2) {
    added.push_back({attachments.back(), attachments.front()});
  }
  return added;
}

}  // namespace parbcc
