#pragma once

#include <span>
#include <vector>

#include "core/bcc_result.hpp"
#include "graph/edge_list.hpp"
#include "util/thread_pool.hpp"
#include "util/workspace.hpp"

/// \file block_cut_tree.hpp
/// Block-cut tree: the bipartite tree (forest, for disconnected inputs)
/// whose nodes are the biconnected components ("blocks") and the
/// articulation vertices, with a tree edge whenever a cut vertex lies
/// in a block.  This is the structure behind the paper's motivating
/// application — fault-tolerant network design — and drives the
/// biconnectivity augmentation of the network_resilience example.

namespace parbcc {

struct BlockCutTree {
  /// == BccResult::num_components.
  vid num_blocks = 0;
  /// Number of articulation vertices.
  vid num_cut_nodes = 0;
  /// Graph vertex of each cut node (ascending vertex order).
  std::vector<vid> cut_vertex;
  /// Per graph vertex: its cut-node index, or kNoVertex.
  std::vector<vid> cut_node_of;
  /// Tree edges {block, num_blocks + cut_node}.
  std::vector<Edge> edges;
  /// CSR of the distinct vertices inside each block.
  std::vector<eid> block_offsets;   // num_blocks + 1
  std::vector<vid> block_vertices;  // sum over blocks of |V(block)|

  std::span<const vid> vertices_of_block(vid b) const {
    return {block_vertices.data() + block_offsets[b],
            block_vertices.data() + block_offsets[b + 1]};
  }

  /// Cut vertices inside block b (count of tree edges at b).
  vid cut_degree(vid b) const { return cut_degree_[b]; }
  /// Leaf blocks: at most one cut vertex (isolated blocks included).
  bool is_leaf_block(vid b) const { return cut_degree_[b] <= 1; }

  std::vector<vid> cut_degree_;  // per block
};

/// Build the tree from a labeling: `edge_component` must be contiguous
/// in [0, num_components) (normalize_labels first when the labels come
/// from a sparse batch-dynamic standing result) and one entry per
/// edge; `is_articulation` one flag per vertex (a BccResult solved with
/// compute_cut_info passes its edge_component, num_components and
/// is_articulation).  The radix sort's buffers come from `ws`.  When
/// `block_of` is given it receives, per vertex, the one block of a
/// non-cut vertex with a non-loop edge and kNoVertex for every other
/// vertex.
///
/// Cost: O(n + m) work plus a radix sort of one key per non-cut vertex
/// and one per edge endpoint at a cut vertex (or self-loop), far fewer
/// than 2m keys when cut vertices are few.
BlockCutTree build_block_cut_tree(Executor& ex, Workspace& ws,
                                  const EdgeList& g,
                                  std::span<const vid> edge_component,
                                  vid num_components,
                                  std::span<const std::uint8_t> is_articulation,
                                  std::vector<vid>* block_of = nullptr);

}  // namespace parbcc
