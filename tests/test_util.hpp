#pragma once

#include <functional>
#include <map>
#include <span>
#include <vector>

#include "connectivity/union_find.hpp"
#include "core/bcc.hpp"
#include "graph/edge_list.hpp"
#include "util/thread_pool.hpp"
#include "util/types.hpp"

/// \file test_util.hpp
/// Independent reference implementations used as oracles.  These are
/// deliberately written in a different style from the library code
/// (recursive DFS, brute-force deletion tests) so shared bugs are
/// unlikely.

namespace parbcc::testutil {

/// One solve on a fresh context over `ex`: the library's entry point
/// for tests that own an executor but no context.
inline BccResult solve(Executor& ex, const EdgeList& g,
                       const BccOptions& opt = {}) {
  BccContext ctx(ex);
  return biconnected_components(ctx, g, opt);
}

struct RefBcc {
  std::vector<vid> edge_comp;
  vid count = 0;
};

/// Recursive Tarjan biconnected components (small graphs only: the
/// recursion depth is O(n)).  Handles disconnected inputs, parallel
/// edges, and gives each self-loop its own component.
RefBcc reference_bcc(const EdgeList& g);

/// Brute force: v is an articulation point iff deleting it increases
/// the number of connected components.
std::vector<std::uint8_t> brute_force_articulation(const EdgeList& g);

/// Brute force: e is a bridge iff deleting it increases the number of
/// connected components (self-loops and parallel copies never are).
std::vector<eid> brute_force_bridges(const EdgeList& g);

/// Number of connected components (isolated vertices count).
vid component_count(const EdgeList& g);

/// Sequential union-find component labels with the parallel routines'
/// contract: label[v] is the smallest vertex id of v's component.
std::vector<vid> connected_components_seq(vid n, std::span<const Edge> edges);

/// True iff labelings a and b induce the same partition of indices.
bool same_partition(std::span<const vid> a, std::span<const vid> b);

}  // namespace parbcc::testutil
