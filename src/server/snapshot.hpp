#pragma once

#include <cstdint>
#include <vector>

#include "core/bcc_result.hpp"
#include "graph/edge_list.hpp"
#include "util/thread_pool.hpp"

/// \file snapshot.hpp
/// An immutable, self-contained view of one solved epoch of a graph,
/// built for concurrent point queries.
///
/// The serving layer (service.hpp) publishes one Snapshot per applied
/// mutation batch via an RCU-style shared_ptr swap: readers resolve
/// every query against whatever epoch they grabbed, writers build the
/// next epoch on the side.  That contract forces two properties on
/// this class, both deliberate:
///
///  - **No shared storage.**  Construction deep-copies everything it
///    needs from the engine's standing result (labels are normalized
///    into a private contiguous copy), so later apply_batch mutations
///    — including the in-place label renormalization — can never
///    touch a published epoch.
///  - **Const-only queries.**  Every accessor is const and touches only
///    immutable arrays, so any number of threads can query one epoch
///    with no synchronization at all.
///
/// Query surface (the block-cut-tree structure of Dong et al.'s
/// biconnectivity interface):
///
///   same_block(u, v)        do u and v share a biconnected component?
///   is_cut(v)               is v an articulation vertex?
///   block_id(e)             normalized block label of edge e
///   path_articulation(u, v) articulation vertices every u-v path must
///                           cross (u, v themselves excluded)
///   same_two_edge(u, v)     do u and v share a 2-edge-connected
///                           component?
///
/// same_block / is_cut / same_two_edge / block_id are O(1);
/// path_articulation is O(log n) (one LCA in the rooted block-cut
/// forest by binary lifting).  The structural trick making same_block
/// O(1): root every block-cut tree at a block node, so blocks sit at
/// even depth, cut vertices at odd depth, and "u and v lie in one
/// block" collapses to at most three parent-pointer comparisons.
///
/// Construction — the "snapshot refresh cost" the server bench measures
/// per epoch — is O(n + m) work for the label copy and the block-cut
/// tree's edge pass, plus a radix sort of one key per non-cut vertex
/// and per edge endpoint at a cut vertex (not all 2m endpoints), plus
/// O(N log N) for the lifting table over the N = blocks + cut vertices
/// forest nodes.  The 2-edge-connected ids fall out of the forest walk
/// that roots the tree, with no connectivity pass over the edges.

namespace parbcc::server {

class Snapshot {
 public:
  /// Deep-copy the queryable surface of `result` (must carry cut info;
  /// labels may be sparse, as in a batch-dynamic standing result).
  /// `g` must be loop-free — a self-loop would put a non-articulation
  /// vertex in two blocks, which the O(1) same_block layout cannot
  /// represent (the serving path guarantees this: BccService takes a
  /// loop-free base and the engine rejects loop insertions).
  /// `version` stamps the epoch (BatchDynamicBcc::version()).
  Snapshot(Executor& ex, const EdgeList& g, const BccResult& result,
           std::uint64_t version);

  std::uint64_t version() const { return version_; }
  vid n() const { return n_; }
  eid m() const { return m_; }
  vid num_blocks() const { return num_blocks_; }
  vid num_cut_vertices() const { return num_cuts_; }
  vid num_two_edge_components() const { return num_two_ec_; }

  /// Queries are total: out-of-range ids yield false / kNoVertex
  /// rather than UB, so the server can answer a stale client (whose
  /// ids referenced an older epoch) without a round trip to validate.

  /// True iff some block contains both u and v (true for u == v iff u
  /// lies in any block, i.e. has an incident edge).  O(1).
  bool same_block(vid u, vid v) const;

  /// True iff v is an articulation vertex.  O(1).
  bool is_cut(vid v) const { return v < n_ && is_cut_[v] != 0; }

  /// Normalized block label of edge e, contiguous in [0, num_blocks);
  /// kNoVertex when e is out of range.  Label values are
  /// epoch-canonical: stable within one snapshot, not across epochs
  /// (only the partition is).  O(1).
  vid block_id(eid e) const { return e < m_ ? labels_[e] : kNoVertex; }

  /// Number of articulation vertices that every u-v path must cross
  /// (excluding u and v themselves) — the cut nodes strictly inside
  /// the block-cut-tree path between u's and v's nodes.  kNoVertex
  /// when u and v are disconnected (or out of range).  O(log n).
  vid path_articulation(vid u, vid v) const;

  /// True iff u and v stay connected after any single edge failure
  /// (same 2-edge-connected component; true for u == v).  O(1).
  bool same_two_edge(vid u, vid v) const {
    return u < n_ && v < n_ && two_ec_[u] == two_ec_[v];
  }

  /// Rough heap footprint of the snapshot's arrays, for refresh-cost
  /// telemetry.
  std::size_t memory_bytes() const { return memory_bytes_; }

 private:
  /// Block-cut-forest node of vertex v: its cut node when v is an
  /// articulation vertex, its unique block otherwise, kNoVertex when
  /// v is isolated.  Nodes are [0, num_blocks_) blocks then
  /// [num_blocks_, num_blocks_ + num_cuts_) cut nodes.
  vid node_of(vid v) const {
    return is_cut_[v] ? num_blocks_ + cut_node_of_[v] : block_of_[v];
  }
  vid lca(vid a, vid b) const;

  std::uint64_t version_ = 0;
  vid n_ = 0;
  eid m_ = 0;
  vid num_blocks_ = 0;
  vid num_cuts_ = 0;
  vid num_two_ec_ = 0;
  std::size_t memory_bytes_ = 0;

  std::vector<vid> labels_;              // per edge, normalized
  std::vector<std::uint8_t> is_cut_;     // per vertex
  std::vector<vid> two_ec_;              // per vertex, normalized
  std::vector<vid> cut_node_of_;         // per vertex, kNoVertex if not cut
  std::vector<vid> block_of_;            // per non-cut vertex, else kNoVertex

  // Rooted block-cut forest (roots are blocks, so depth parity encodes
  // node type: even = block, odd = cut vertex).
  std::vector<vid> parent_;  // per node, kNoVertex at roots
  std::vector<vid> depth_;   // per node
  std::vector<vid> root_;    // per node: its tree's root (component id)
  // Binary lifting: up_[k * num_nodes + x] = 2^k-th ancestor of x (or
  // kNoVertex past the root); levels_ tables of num_nodes entries.
  std::vector<vid> up_;
  int levels_ = 0;
};

}  // namespace parbcc::server
