#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "core/batch_dynamic.hpp"

/// \file churn_stream.hpp
/// The serve-churn workload's mutation stream: link flapping at the edge
/// of a monitored network.  Every batch fails `per_side` peripheral
/// links and recovers as many links that failed earlier, so a batch
/// carries at most 2 * per_side edges.  A link is peripheral when its
/// block has at most kPeripheralBlockEdges edges, or when it is a bridge
/// whose light side holds at most kPendantVertices vertices.  Core links
/// (the giant block, backbone bridges) stay up, so each batch touches a
/// small region of the graph.
///
/// The stream is generated before the measured section against a replica
/// engine.  Deletions name edge ids, and the standing graph's numbering
/// depends only on the batches applied so far, so the served engine sees
/// valid ids when it receives the same batches in the same order.
///
/// This generator is private to bench_e2e on purpose: edits to the older
/// benches' churn helper cannot change this workload.

namespace parbcc::e2e {

inline constexpr eid kPeripheralBlockEdges = 32;
inline constexpr vid kPendantVertices = 64;

struct MutationBatch {
  std::vector<Edge> insertions;
  std::vector<eid> deletions;
};

/// Ids of the peripheral edges of `dyn`'s standing graph.  Bridge light
/// sides come from a BFS spanning forest: every bridge is a tree edge.
inline std::vector<eid> peripheral_edges(const BatchDynamicBcc& dyn) {
  const EdgeList& g = dyn.graph();
  const std::vector<vid>& label = dyn.result().edge_component;
  std::vector<eid> block_edges(dyn.label_bound(), 0);
  for (const vid l : label) ++block_edges[l];

  std::vector<eid> offset(static_cast<std::size_t>(g.n) + 1, 0);
  for (const Edge& e : g.edges) {
    ++offset[e.u + 1];
    ++offset[e.v + 1];
  }
  for (vid v = 0; v < g.n; ++v) offset[v + 1] += offset[v];
  std::vector<vid> adj(offset[g.n]);
  {
    std::vector<eid> pos(offset.begin(), offset.end() - 1);
    for (const Edge& e : g.edges) {
      adj[pos[e.u]++] = e.v;
      adj[pos[e.v]++] = e.u;
    }
  }

  std::vector<vid> parent(g.n, kNoVertex);
  std::vector<vid> root(g.n, kNoVertex);
  std::vector<vid> order;
  order.reserve(g.n);
  for (vid r = 0; r < g.n; ++r) {
    if (parent[r] != kNoVertex) continue;
    parent[r] = r;
    root[r] = r;
    const std::size_t first = order.size();
    order.push_back(r);
    for (std::size_t head = first; head < order.size(); ++head) {
      const vid x = order[head];
      for (eid j = offset[x]; j < offset[x + 1]; ++j) {
        const vid y = adj[j];
        if (parent[y] != kNoVertex) continue;
        parent[y] = x;
        root[y] = r;
        order.push_back(y);
      }
    }
  }
  std::vector<vid> subtree(g.n, 1);
  for (std::size_t i = order.size(); i-- > 0;) {
    const vid x = order[i];
    if (parent[x] != x) subtree[parent[x]] += subtree[x];
  }

  std::vector<eid> out;
  for (eid e = 0; e < g.m(); ++e) {
    const eid size = block_edges[label[e]];
    if (size >= 2) {
      if (size <= kPeripheralBlockEdges) out.push_back(e);
      continue;
    }
    const vid u = g.edges[e].u;
    const vid v = g.edges[e].v;
    const vid child = parent[u] == v ? u : v;
    const vid light =
        std::min(subtree[child], subtree[root[child]] - subtree[child]);
    if (light <= kPendantVertices) out.push_back(e);
  }
  return out;
}

/// `batches` churn batches, applied to `replica` as they are drawn (the
/// replica ends in the state the served engine reaches after the whole
/// stream).  The first batch only fails links; later batches also
/// recover as many failed links as they fail.
inline std::vector<MutationBatch> make_churn_stream(BatchDynamicBcc& replica,
                                                    int batches,
                                                    eid per_side,
                                                    std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Edge> down;
  std::vector<MutationBatch> stream;
  stream.reserve(static_cast<std::size_t>(batches));
  for (int b = 0; b < batches; ++b) {
    MutationBatch batch;
    std::vector<eid> candidates = peripheral_edges(replica);
    const eid take = std::min<eid>(per_side, static_cast<eid>(candidates.size()));
    for (eid i = 0; i < take; ++i) {
      std::swap(candidates[i], candidates[i + rng() % (candidates.size() - i)]);
      batch.deletions.push_back(candidates[i]);
    }
    for (eid i = 0; i < per_side && !down.empty(); ++i) {
      const std::size_t j = rng() % down.size();
      batch.insertions.push_back(down[j]);
      down[j] = down.back();
      down.pop_back();
    }
    for (const eid e : batch.deletions) down.push_back(replica.graph().edges[e]);
    replica.apply_batch(batch.insertions, batch.deletions);
    stream.push_back(std::move(batch));
  }
  return stream;
}

}  // namespace parbcc::e2e
