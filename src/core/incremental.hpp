#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/edge_list.hpp"
#include "util/types.hpp"

/// \file incremental.hpp
/// Insertion-only (incremental) biconnectivity — a natural extension of
/// the paper's fault-tolerance application: as redundant links are
/// added to a network one at a time, keep the block structure, cut
/// vertices and bridges current without recomputing from scratch
/// (Westbrook-Tarjan style block-cut forest maintenance).
///
/// Representation: the block-cut forest as parent pointers over an
/// alternating tree of vertex nodes and block nodes, plus a union-find
/// over block ids so path contractions are O(1) merges.  An edge
/// insertion either
///   - joins two components: the smaller tree is re-rooted and hung off
///     the new bridge block (amortized O(log) re-rootings by size), or
///   - closes a cycle: the tree path between the endpoints is located
///     by an alternating marked walk and all blocks on it merge into
///     one.
/// Contractions permanently shrink the forest, so total insertion work
/// is near-linear for typical sequences; a single insertion can cost
/// O(tree depth) in the worst case.  Queries are O(alpha).

namespace parbcc {

class IncrementalBiconnectivity {
 public:
  explicit IncrementalBiconnectivity(vid n);

  /// Insert undirected edge {u, v}.  Self-loops are ignored.  Parallel
  /// edges are honoured (a doubled bridge stops being a bridge).
  void insert_edge(vid u, vid v);

  /// Bulk insertion: reserves the block arrays and the LCA-walk scratch
  /// map for the whole batch up front, then inserts in order.  On
  /// batches of thousands of edges, inserting one at a time would pay a
  /// vector reallocation or a mark_ rehash every few insertions, which
  /// dominates the cheap per-edge forest work.
  void insert_edges(std::span<const Edge> batch);

  bool same_component(vid u, vid v);
  /// Do u and v lie in a common biconnected component?  (True for u ==
  /// v iff v is in any block, i.e. has an incident edge.)
  bool same_block(vid u, vid v);
  bool is_cut_vertex(vid v) const { return blocks_of_[v] >= 2; }

  /// Number of blocks (= biconnected components of the edge set).
  vid num_blocks() const { return num_blocks_; }
  /// Blocks that consist of a single edge.
  vid num_bridges() const { return num_bridges_; }
  vid num_components() const { return num_components_; }
  vid num_cut_vertices() const;

 private:
  using node = std::uint32_t;  // vertex nodes [0, n); block nodes >= n
  static constexpr node kNoNode = ~node{0};

  bool is_block(node x) const { return x >= n_; }
  node resolve(node x);           // block ids resolve through the UF
  node block_find(node b);        // UF find over block indices
  node make_block();              // fresh block node
  node merge_blocks(node a, node b);
  void reroot(vid v);             // make v the root of its BC tree

  vid n_;
  std::vector<node> parent_;        // per node (vertices then blocks)
  std::vector<node> block_uf_;      // parent index per block
  std::vector<vid> block_size_;     // UF by size
  std::vector<eid> edge_count_;     // edges per block (representative)
  std::vector<vid> blocks_of_;      // #blocks containing each vertex

  // Connectivity UF over vertices with component sizes.
  std::vector<vid> comp_parent_;
  std::vector<vid> comp_size_;
  vid comp_find(vid v);

  vid num_blocks_ = 0;
  vid num_bridges_ = 0;
  vid num_components_;

  // Scratch for the alternating LCA walk (cleared per insertion).
  std::unordered_map<node, int> mark_;
};

}  // namespace parbcc
