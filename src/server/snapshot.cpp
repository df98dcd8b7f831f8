#include "server/snapshot.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "connectivity/shiloach_vishkin.hpp"
#include "core/block_cut_tree.hpp"
#include "scan/compact.hpp"

namespace parbcc::server {

Snapshot::Snapshot(Executor& ex, const EdgeList& g, const BccResult& result,
                   std::uint64_t version)
    : version_(version), n_(g.n), m_(g.m()) {
  if (result.edge_component.size() != g.edges.size()) {
    throw std::invalid_argument("Snapshot: result does not match graph");
  }
  if (result.is_articulation.size() != g.n) {
    throw std::invalid_argument(
        "Snapshot: result lacks cut info (compute_cut_info)");
  }

  // Private copies of the per-edge/per-vertex bits.  The labels are
  // normalized here (the batch-dynamic standing result is sparse
  // between renormalizations) so block_id answers are contiguous and
  // the block-cut tree can size per-block arrays by num_blocks.
  labels_ = result.edge_component;
  num_blocks_ = normalize_labels(labels_);
  is_cut_ = result.is_articulation;

  // Scratch for the block-cut sort and the 2ECC pack below.
  Workspace ws;
  BlockCutTree tree = build_block_cut_tree(ex, ws, g, labels_, num_blocks_,
                                           is_cut_, &block_of_);
  num_cuts_ = tree.num_cut_nodes;
  cut_node_of_ = std::move(tree.cut_node_of);

  // Root the block-cut forest at block nodes.  Every component of the
  // forest contains a block (a lone cut node is impossible: a cut
  // vertex lies in >= 2 blocks), so seeding BFS from blocks reaches
  // every node, and depth parity encodes node type from then on.
  //
  // The same top-down walk numbers the 2-edge-connected components.
  // Deleting the bridges leaves the non-bridge blocks glued at shared
  // cut vertices, so a non-bridge block joins its parent cut node's
  // component and a cut node joins its parent block's unless that block
  // is a bridge (or it is a root); every other node opens a new id.
  // Bridge blocks themselves get no id: no vertex takes it.
  std::vector<std::uint8_t> bridge_block(num_blocks_, 0);
  for (const eid e : result.bridges) bridge_block[labels_[e]] = 1;
  const vid num_nodes = num_blocks_ + num_cuts_;
  std::vector<vid> node_two_ec(num_nodes, kNoVertex);
  vid next_two_ec = 0;
  const auto take_two_ec = [&](vid x, vid from) {
    if (x < num_blocks_ && bridge_block[x]) return;
    node_two_ec[x] = from != kNoVertex && node_two_ec[from] != kNoVertex
                         ? node_two_ec[from]
                         : next_two_ec++;
  };
  std::vector<eid> off(num_nodes + 1, 0);
  for (const Edge& e : tree.edges) {
    ++off[e.u + 1];
    ++off[e.v + 1];
  }
  for (vid x = 0; x < num_nodes; ++x) off[x + 1] += off[x];
  std::vector<vid> nbr(2 * tree.edges.size());
  {
    std::vector<eid> cur(off.begin(), off.end() - 1);
    for (const Edge& e : tree.edges) {
      nbr[cur[e.u]++] = e.v;
      nbr[cur[e.v]++] = e.u;
    }
  }
  parent_.assign(num_nodes, kNoVertex);
  depth_.assign(num_nodes, 0);
  root_.assign(num_nodes, kNoVertex);
  std::vector<vid> order;
  order.reserve(num_nodes);
  vid max_depth = 0;
  for (vid r = 0; r < num_blocks_; ++r) {
    if (root_[r] != kNoVertex) continue;
    root_[r] = r;
    take_two_ec(r, kNoVertex);
    const std::size_t tail = order.size();
    order.push_back(r);
    for (std::size_t head = tail; head < order.size(); ++head) {
      const vid x = order[head];
      for (eid i = off[x]; i < off[x + 1]; ++i) {
        const vid y = nbr[i];
        if (root_[y] != kNoVertex) continue;
        root_[y] = r;
        parent_[y] = x;
        depth_[y] = depth_[x] + 1;
        max_depth = std::max(max_depth, depth_[y]);
        take_two_ec(y, x);
        order.push_back(y);
      }
    }
  }

  // A vertex takes its node's component; a vertex whose node has none
  // (isolated, or the non-cut end of a bridge) is a component alone.
  two_ec_.resize(n_);
  const std::size_t alone = pack_into(
      ex, ws, n_,
      [&](std::size_t v) {
        const vid x = node_of(static_cast<vid>(v));
        return x == kNoVertex || node_two_ec[x] == kNoVertex;
      },
      [&](std::size_t dst, std::size_t v) {
        two_ec_[v] = next_two_ec + static_cast<vid>(dst);
      });
  ex.parallel_for(n_, [&](std::size_t v) {
    const vid x = node_of(static_cast<vid>(v));
    if (x != kNoVertex && node_two_ec[x] != kNoVertex) {
      two_ec_[v] = node_two_ec[x];
    }
  });
  num_two_ec_ = next_two_ec + static_cast<vid>(alone);

  // Binary lifting over the rooted forest for O(log n) LCA.
  levels_ = 1;
  while ((1u << levels_) <= max_depth) ++levels_;
  up_.assign(static_cast<std::size_t>(levels_) * num_nodes, kNoVertex);
  if (num_nodes > 0) {
    ex.parallel_for(num_nodes,
                    [&](std::size_t x) { up_[x] = parent_[x]; });
    for (int k = 1; k < levels_; ++k) {
      const std::size_t prev = static_cast<std::size_t>(k - 1) * num_nodes;
      const std::size_t curr = static_cast<std::size_t>(k) * num_nodes;
      ex.parallel_for(num_nodes, [&](std::size_t x) {
        const vid mid = up_[prev + x];
        up_[curr + x] = mid == kNoVertex ? kNoVertex : up_[prev + mid];
      });
    }
  }

  memory_bytes_ = labels_.size() * sizeof(vid) + is_cut_.size() +
                  two_ec_.size() * sizeof(vid) +
                  cut_node_of_.size() * sizeof(vid) +
                  block_of_.size() * sizeof(vid) +
                  (parent_.size() + depth_.size() + root_.size() +
                   up_.size()) *
                      sizeof(vid);
}

bool Snapshot::same_block(vid u, vid v) const {
  if (u >= n_ || v >= n_) return false;
  if (u == v) return node_of(u) != kNoVertex;
  const bool cu = is_cut_[u] != 0;
  const bool cv = is_cut_[v] != 0;
  if (!cu && !cv) {
    // Each lies in at most one block.
    return block_of_[u] != kNoVertex && block_of_[u] == block_of_[v];
  }
  if (cu != cv) {
    // The non-cut endpoint's unique block must be adjacent to the cut
    // endpoint's node: in the rooted forest that is exactly
    // parent/child between the two nodes.
    const vid block = block_of_[cu ? v : u];
    if (block == kNoVertex) return false;
    const vid cut = node_of(cu ? u : v);
    return parent_[block] == cut || parent_[cut] == block;
  }
  // Both cut: the shared block, if any, is a tree neighbor of both.
  // Cut nodes are never roots, so both parents exist and are blocks:
  // either the same parent block holds both, or one's parent block is
  // the other's child, i.e. its grandparent is the other cut node.
  const vid a = node_of(u);
  const vid b = node_of(v);
  const vid pa = parent_[a];
  const vid pb = parent_[b];
  if (pa == pb) return true;
  return parent_[pa] == b || parent_[pb] == a;
}

vid Snapshot::lca(vid a, vid b) const {
  const std::size_t num_nodes = parent_.size();
  if (depth_[a] < depth_[b]) std::swap(a, b);
  vid diff = depth_[a] - depth_[b];
  for (int k = 0; diff != 0; ++k, diff >>= 1) {
    if (diff & 1u) a = up_[static_cast<std::size_t>(k) * num_nodes + a];
  }
  if (a == b) return a;
  for (int k = levels_ - 1; k >= 0; --k) {
    const std::size_t base = static_cast<std::size_t>(k) * num_nodes;
    const vid ua = up_[base + a];
    const vid ub = up_[base + b];
    if (ua != ub) {
      a = ua;
      b = ub;
    }
  }
  return parent_[a];
}

vid Snapshot::path_articulation(vid u, vid v) const {
  if (u >= n_ || v >= n_) return kNoVertex;
  if (u == v) return 0;
  const vid a = node_of(u);
  const vid b = node_of(v);
  if (a == kNoVertex || b == kNoVertex) return kNoVertex;  // isolated
  if (root_[a] != root_[b]) return kNoVertex;              // disconnected
  if (a == b) return 0;
  const vid l = lca(a, b);
  // Cut nodes sit at odd depth (roots are blocks).  Count odd depths
  // on the two arms of the path — each arm inclusive of both ends, so
  // l is double-counted once — then drop the endpoints: a cut endpoint
  // is u or v itself, never "interior".
  const auto odd_in = [](vid lo, vid hi) {
    return ((hi + 1) >> 1) - (lo >> 1);
  };
  vid cuts = odd_in(depth_[l], depth_[a]) + odd_in(depth_[l], depth_[b]) -
             (depth_[l] & 1u);
  cuts -= depth_[a] & 1u;
  cuts -= depth_[b] & 1u;
  return cuts;
}

}  // namespace parbcc::server
