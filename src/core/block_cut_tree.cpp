#include "core/block_cut_tree.hpp"

#include <atomic>
#include <bit>
#include <stdexcept>

#include "sort/radix_sort.hpp"
#include "util/padded.hpp"

namespace parbcc {

namespace {

/// One participant's counts in a parallel_blocks pass: keys and cut
/// vertices emitted, then distinct keys and tree edges.  exclusive_scan
/// turns them into that participant's write cursors.
struct Tally {
  std::size_t keys = 0;
  std::size_t cuts = 0;
};

Tally exclusive_scan(std::vector<Padded<Tally>>& tally) {
  Tally total;
  for (Padded<Tally>& t : tally) {
    const Tally here = *t;
    *t = total;
    total.keys += here.keys;
    total.cuts += here.cuts;
  }
  return total;
}

}  // namespace

BlockCutTree build_block_cut_tree(Executor& ex, Workspace& ws,
                                  const EdgeList& g,
                                  std::span<const vid> edge_component,
                                  vid num_components,
                                  std::span<const std::uint8_t> is_articulation,
                                  std::vector<vid>* block_of) {
  if (edge_component.size() != g.edges.size() ||
      is_articulation.size() != g.n) {
    throw std::invalid_argument(
        "build_block_cut_tree: arrays do not match the graph");
  }
  const vid n = g.n;
  const vid k = num_components;
  const int p = ex.threads();
  BlockCutTree tree;
  tree.num_blocks = k;

  // Distinct (block, vertex) incidences are sorted keys
  // block << shift | vertex, so runs group by block in ascending vertex
  // order.  A non-cut vertex lies in exactly one block: the edge pass
  // scatters it into `owner` (every writer stores the same value, so
  // the slot is tested first) and the vertex then needs one key.  Only
  // cut endpoints and self-loops (a loop is a block of its own) emit a
  // key per edge, so the sort sees about n keys, not 2m, when cut
  // vertices are few.
  const int shift = std::bit_width(n > 0 ? n - 1 : vid{0});
  const std::uint64_t vmask = (std::uint64_t{1} << shift) - 1;
  const auto block_of_key = [&](std::uint64_t key) {
    return static_cast<vid>(key >> shift);
  };
  std::vector<vid> owner(n, kNoVertex);
  std::vector<Padded<Tally>> tally(static_cast<std::size_t>(p));
  ex.parallel_blocks(g.m(), [&](int tid, std::size_t begin, std::size_t end) {
    std::size_t keys = 0;
    for (std::size_t e = begin; e < end; ++e) {
      const Edge edge = g.edges[e];
      if (edge.u == edge.v) {
        ++keys;
        continue;
      }
      const vid label = edge_component[e];
      for (const vid x : {edge.u, edge.v}) {
        if (is_articulation[x]) {
          ++keys;
          continue;
        }
        std::atomic_ref slot(owner[x]);
        if (slot.load(std::memory_order_relaxed) != label) {
          slot.store(label, std::memory_order_relaxed);
        }
      }
    }
    tally[static_cast<std::size_t>(tid)]->keys = keys;
  });
  ex.parallel_blocks(n, [&](int tid, std::size_t begin, std::size_t end) {
    Tally& t = *tally[static_cast<std::size_t>(tid)];
    for (std::size_t v = begin; v < end; ++v) {
      if (is_articulation[v]) {
        ++t.cuts;
      } else if (owner[v] != kNoVertex) {
        ++t.keys;
      }
    }
  });
  const Tally total = exclusive_scan(tally);
  std::vector<std::uint64_t> keys(total.keys);
  tree.num_cut_nodes = static_cast<vid>(total.cuts);
  tree.cut_vertex.resize(total.cuts);
  tree.cut_node_of.resize(n);
  ex.parallel_blocks(g.m(), [&](int tid, std::size_t begin, std::size_t end) {
    Tally cursor = *tally[static_cast<std::size_t>(tid)];
    for (std::size_t e = begin; e < end; ++e) {
      const Edge edge = g.edges[e];
      const std::uint64_t block = edge_component[e];
      if (edge.u == edge.v) {
        keys[cursor.keys++] = (block << shift) | edge.u;
        continue;
      }
      for (const vid x : {edge.u, edge.v}) {
        if (is_articulation[x]) keys[cursor.keys++] = (block << shift) | x;
      }
    }
    // Cut nodes are numbered in ascending vertex order.
    const auto [vbegin, vend] = Executor::block_range(n, p, tid);
    for (std::size_t v = vbegin; v < vend; ++v) {
      if (is_articulation[v]) {
        tree.cut_vertex[cursor.cuts] = static_cast<vid>(v);
        tree.cut_node_of[v] = static_cast<vid>(cursor.cuts++);
      } else {
        tree.cut_node_of[v] = kNoVertex;
        if (owner[v] != kNoVertex) {
          keys[cursor.keys++] = (std::uint64_t{owner[v]} << shift) | v;
        }
      }
    }
  });
  radix_sort_u64(ex, ws, keys);

  // Walk the sorted keys: each distinct key is one block vertex and, if
  // the vertex is a cut, one tree edge.  block_offsets[b] and edge_start[b]
  // are the vertex and edge cursors where block b's run begins.
  const std::size_t num_keys = keys.size();
  const auto distinct = [&](std::size_t i) {
    return i == 0 || keys[i] != keys[i - 1];
  };
  ex.parallel_blocks(num_keys,
                     [&](int tid, std::size_t begin, std::size_t end) {
    Tally t;
    for (std::size_t i = begin; i < end; ++i) {
      if (!distinct(i)) continue;
      ++t.keys;
      t.cuts += is_articulation[keys[i] & vmask] ? 1 : 0;
    }
    *tally[static_cast<std::size_t>(tid)] = t;
  });
  const Tally out = exclusive_scan(tally);
  tree.block_vertices.resize(out.keys);
  tree.edges.resize(out.cuts);
  tree.block_offsets.resize(static_cast<std::size_t>(k) + 1);
  std::vector<eid> edge_start(static_cast<std::size_t>(k) + 1);
  ex.parallel_blocks(num_keys,
                     [&](int tid, std::size_t begin, std::size_t end) {
    Tally cursor = *tally[static_cast<std::size_t>(tid)];
    for (std::size_t i = begin; i < end; ++i) {
      if (!distinct(i)) continue;
      const vid block = block_of_key(keys[i]);
      const vid v = static_cast<vid>(keys[i] & vmask);
      // Every block after the previous key's, up to this one, starts here.
      for (vid b = i == 0 ? 0 : block_of_key(keys[i - 1]) + 1; b <= block;
           ++b) {
        tree.block_offsets[b] = static_cast<eid>(cursor.keys);
        edge_start[b] = static_cast<eid>(cursor.cuts);
      }
      tree.block_vertices[cursor.keys++] = v;
      if (is_articulation[v]) {
        tree.edges[cursor.cuts++] = {block, k + tree.cut_node_of[v]};
      }
    }
  });
  for (vid b = num_keys == 0 ? 0 : block_of_key(keys.back()) + 1; b <= k;
       ++b) {
    tree.block_offsets[b] = static_cast<eid>(out.keys);
    edge_start[b] = static_cast<eid>(out.cuts);
  }
  tree.cut_degree_.resize(k);
  ex.parallel_for(k, [&](std::size_t b) {
    tree.cut_degree_[b] = edge_start[b + 1] - edge_start[b];
  });
  if (block_of != nullptr) *block_of = std::move(owner);
  return tree;
}

}  // namespace parbcc
