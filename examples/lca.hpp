#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "eulertour/tree_computations.hpp"
#include "paper/sparse_table.hpp"
#include "util/thread_pool.hpp"

/// \file lca.hpp
/// Lowest common ancestors by the Euler-tour + range-minimum reduction.
///
/// The paper's structural proofs (Lemma 2, Theorem 2) reason about
/// lca(u, v) of nontree-edge endpoints; this module makes those queries
/// a first-class O(1) operation.  The ear decomposition uses it to find
/// where each nontree edge's fundamental cycle turns.
///
/// Build: O(n log n) work (parallel sparse table over the 2n-1 entry
/// depth sequence of the DFS tour); query: O(1).

namespace parbcc {

class LcaIndex {
 public:
  LcaIndex() = default;

  /// Build from a rooted tree (pre/sub filled) and its level structure.
  LcaIndex(Executor& ex, const RootedSpanningTree& tree,
           const ChildrenCsr& children, const LevelStructure& levels) {
    const std::size_t n = tree.parent.size();
    if (n == 0) return;
    // The DFS visit sequence: vertex v first appears at tour index
    // in(v) = 2*pre(v) - 2 - depth(v) and is revisited after each child
    // subtree.  For LCA the standard 2n-1 "visit on entry and after
    // every child" sequence is generated per vertex from its pre/size
    // arithmetic, sequentially per level to keep O(n) work.
    seq_.assign(2 * n - 1, 0);
    first_.assign(n, 0);
    depth_ = levels.depth;

    // Position of v's k-th visit: entry at entry(v), then one visit
    // after each child's subtree completes.  entry(v) in the 2n-1
    // sequence equals 2*(pre(v)-1) - depth(v).
    ex.parallel_for(n, [&](std::size_t v) {
      const std::size_t entry =
          2 * (static_cast<std::size_t>(tree.pre[v]) - 1) - depth_[v];
      first_[v] = static_cast<vid>(entry);
      seq_[entry] = static_cast<vid>(v);
      // Revisit after each child subtree: child c occupies 2*sub(c)-1
      // sequence slots starting right after its own entry.
      std::size_t cursor = entry;
      for (const vid c : children.children(v)) {
        cursor += 2 * static_cast<std::size_t>(tree.sub[c]);
        seq_[cursor] = static_cast<vid>(v);
      }
    });

    // Range-minimum over depths, carrying the vertex.
    std::vector<std::uint64_t> keyed(seq_.size());
    ex.parallel_for(seq_.size(), [&](std::size_t i) {
      keyed[i] = (static_cast<std::uint64_t>(depth_[seq_[i]]) << 32) | seq_[i];
    });
    table_ = MinTable<std::uint64_t>(ex, keyed.data(), keyed.size());
  }

  /// Lowest common ancestor of u and v.
  vid lca(vid u, vid v) const {
    std::size_t a = first_[u];
    std::size_t b = first_[v];
    if (a > b) std::swap(a, b);
    return static_cast<vid>(table_.query(a, b) & 0xffffffffu);
  }

  /// Tree distance (number of edges) between u and v.
  vid distance(vid u, vid v) const {
    const vid a = lca(u, v);
    return depth_[u] + depth_[v] - 2 * depth_[a];
  }

  bool empty() const { return seq_.empty(); }

 private:
  std::vector<vid> seq_;    // 2n-1 visit sequence
  std::vector<vid> first_;  // first visit index per vertex
  std::vector<vid> depth_;
  MinTable<std::uint64_t> table_;
};

}  // namespace parbcc
