#include "dfs_tour_positions.hpp"

namespace parbcc {

DfsTourPositions dfs_tour_positions(Executor& ex,
                                    const RootedSpanningTree& tree,
                                    std::span<const vid> depth) {
  const std::size_t n = tree.parent.size();
  DfsTourPositions out;
  out.down.assign(n, kNoVertex);
  out.up.assign(n, kNoVertex);
  // Count of arcs before the down-arc of v: preorder predecessors that
  // are not ancestors contribute both their arcs, non-root ancestors
  // contribute only their down arc.  depth(v) counts ancestors
  // including the root, which has no arcs.
  ex.parallel_for(n, [&](std::size_t v) {
    if (v == tree.root) return;
    const vid d = depth[v];
    const vid before = 2 * (tree.pre[v] - 1 - d) + (d - 1);
    out.down[v] = before;
    out.up[v] = before + 2 * tree.sub[v] - 1;
  });
  return out;
}

}  // namespace parbcc
