#pragma once

#include <span>
#include <vector>

#include "eulertour/tree_computations.hpp"
#include "util/thread_pool.hpp"
#include "util/types.hpp"

/// \file dfs_tour_positions.hpp
/// Analytic DFS-order Euler tour positions (paper §3.2's cache-friendly
/// tour): for each non-root v, the tour index of the arc parent(v)->v
/// and of v->parent(v), derived in O(1) per vertex from pre/sub/depth.
/// down[root] and up[root] are set to kNoVertex.

namespace parbcc {

struct DfsTourPositions {
  std::vector<vid> down;
  std::vector<vid> up;
};
DfsTourPositions dfs_tour_positions(Executor& ex,
                                    const RootedSpanningTree& tree,
                                    std::span<const vid> depth);

}  // namespace parbcc
