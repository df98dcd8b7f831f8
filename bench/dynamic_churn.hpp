#pragma once

#include <algorithm>
#include <random>
#include <vector>

#include "bench_common.hpp"
#include "connectivity/components.hpp"
#include "core/batch_dynamic.hpp"
#include "util/timer.hpp"

/// \file dynamic_churn.hpp
/// The streaming-churn workload for the batch-dynamic engine, shared
/// by bench_dynamic (the measuring bench) and bench_ablation section
/// (g) (the committed ≥10x hard gate) so both drive the identical
/// stream.
///
/// The stream models link flapping in the network-monitor use case:
/// each round *fails* a batch of peripheral links and *recovers* a
/// batch of previously failed links from the down pool.  Peripheral
/// means edge-of-network: redundant links of small blocks (failing one
/// shatters its block into bridges; recovery welds them back) and
/// access bridges that hang at most a small pendant (failing one cuts
/// that site off; recovery rejoins it).  Core links — the giant block
/// and the backbone bridges carrying large subtrees — are the stable
/// transit infrastructure and stay up, which is exactly the locality
/// the damage model monetizes.  Insertions plus deletions stay within
/// 1% of m per round.
///
/// Two arms per configuration:
///   batch-dynamic  BatchDynamicBcc::apply_batch on the standing graph
///   re-solve       a fresh static solve of the same post-batch graph
///                  (what a periodic refresher pays to stay current)
/// The re-solve arm doubles as the oracle: after every round the
/// engine's labels must match the fresh solve exactly once both are
/// first-appearance normalized, and the cut info must match
/// bit-for-bit.

namespace parbcc::bench {

inline constexpr int kChurnRounds = 12;
/// Edges in blocks larger than this stay up: churn is peripheral.
inline constexpr eid kChurnPeriphCap = 32;
/// Bridges hanging more than this many vertices on their light side
/// are backbone links and stay up.
inline constexpr vid kChurnPendantCap = 64;

/// Sample `want` distinct peripheral edge ids of the standing graph —
/// edges of blocks with at most kChurnPeriphCap edges, except bridges,
/// which qualify only when their light side hangs at most
/// kChurnPendantCap vertices — by a partial Fisher-Yates over the
/// candidate list.  The pendant weights come from a BFS spanning
/// forest (a bridge is a tree edge of every spanning forest); this is
/// the monitor's own untimed bookkeeping, not part of either measured
/// arm.
inline std::vector<eid> sample_peripheral(const BatchDynamicBcc& dyn,
                                          eid want, std::mt19937_64& rng) {
  const EdgeList& g = dyn.graph();
  const std::vector<vid>& lab = dyn.result().edge_component;
  // Labels are partition-canonical but sparse between renormalizations,
  // so per-label scratch sizes by label_bound(), not num_components.
  std::vector<eid> block_edges(dyn.label_bound(), 0);
  for (const vid l : lab) ++block_edges[l];

  std::vector<std::vector<vid>> adj(g.n);
  for (const Edge& e : g.edges) {
    adj[e.u].push_back(e.v);
    adj[e.v].push_back(e.u);
  }
  std::vector<vid> parent(g.n, kNoVertex);
  std::vector<vid> order;
  order.reserve(g.n);
  for (vid r = 0; r < g.n; ++r) {
    if (parent[r] != kNoVertex) continue;
    parent[r] = r;
    const std::size_t tail = order.size();
    order.push_back(r);
    for (std::size_t head = tail; head < order.size(); ++head) {
      const vid x = order[head];
      for (const vid y : adj[x]) {
        if (parent[y] != kNoVertex) continue;
        parent[y] = x;
        order.push_back(y);
      }
    }
  }
  std::vector<vid> sub(g.n, 1);
  for (std::size_t i = order.size(); i-- > 0;) {
    const vid x = order[i];
    if (parent[x] != x) sub[parent[x]] += sub[x];
  }
  std::vector<vid> root_of(g.n);
  for (const vid x : order) {
    root_of[x] = parent[x] == x ? x : root_of[parent[x]];
  }

  std::vector<eid> cands;
  for (eid e = 0; e < g.m(); ++e) {
    const eid sz = block_edges[lab[e]];
    if (sz >= 2) {
      if (sz <= kChurnPeriphCap) cands.push_back(e);
      continue;
    }
    // A single-edge block is a bridge, hence a tree edge; its light
    // side is the child subtree or the rest of the component.
    const vid u = g.edges[e].u;
    const vid v = g.edges[e].v;
    const vid child = parent[u] == v ? u : v;
    const vid light = std::min(sub[child], sub[root_of[child]] - sub[child]);
    if (light <= kChurnPendantCap) cands.push_back(e);
  }
  if (want > cands.size()) want = static_cast<eid>(cands.size());
  for (eid i = 0; i < want; ++i) {
    const std::size_t j = i + rng() % (cands.size() - i);
    std::swap(cands[i], cands[j]);
  }
  cands.resize(want);
  return cands;
}

inline bool churn_labels_match(const BccResult& a, const BccResult& b) {
  if (a.num_components != b.num_components) return false;
  std::vector<vid> la = a.edge_component;
  std::vector<vid> lb = b.edge_component;
  normalize_labels(la);
  normalize_labels(lb);
  return la == lb && a.is_articulation == b.is_articulation &&
         a.bridges == b.bridges;
}

struct ChurnOutcome {
  eid batch = 0;           // edges per side per round
  double dyn_mean = 0;     // seconds per apply_batch
  double ref_mean = 0;     // seconds per fresh re-solve
  double speedup = 0;      // ref_mean / dyn_mean
  double updates_per_s = 0;
  double region_mean = 0;  // region edges per round
  std::uint64_t fallbacks = 0;
  RepStats dyn_stats, ref_stats;
  int label_fail_round = -1;  // first oracle divergence, or -1
};

/// Run kChurnRounds of the churn stream over `base` at width `p` and
/// measure both arms; `trace`, when non-null, collects the engine's
/// batch spans and counters (sub-solves run untraced).
inline ChurnOutcome run_streaming_churn(EdgeList base, int p,
                                        std::uint64_t seed, Trace* trace) {
  std::mt19937_64 rng(seed ^ (0x9e3779b97f4a7c15ull * (p + 1)));
  const eid m = base.m();
  ChurnOutcome out;
  out.batch = m / 200;  // per side; ins + del stay within 1% of m

  BccContext ctx(p);
  BccContext ctx_ref(p);
  BatchDynamicOptions dopt;
  dopt.trace = trace;
  BatchDynamicBcc dyn(ctx, std::move(base), dopt);

  // Prime the down pool (untimed) so every measured round both fails
  // and recovers links.
  std::vector<Edge> pool;
  {
    const std::vector<eid> dels = sample_peripheral(dyn, out.batch, rng);
    for (const eid e : dels) pool.push_back(dyn.graph().edges[e]);
    dyn.apply_batch({}, dels);
  }

  std::vector<double> t_dyn, t_ref;
  double region_sum = 0;
  Timer timer;
  for (int round = 0; round < kChurnRounds; ++round) {
    // Fail `batch` peripheral links, recover `batch` pooled ones.
    std::vector<eid> dels = sample_peripheral(dyn, out.batch, rng);
    std::vector<Edge> ins;
    for (eid i = 0; i < out.batch && !pool.empty(); ++i) {
      const std::size_t j = rng() % pool.size();
      ins.push_back(pool[j]);
      pool[j] = pool.back();
      pool.pop_back();
    }
    for (const eid e : dels) pool.push_back(dyn.graph().edges[e]);

    timer.reset();
    dyn.apply_batch(ins, dels);
    t_dyn.push_back(timer.lap());
    region_sum += dyn.last_batch().region_edges;

    // The refresher arm re-solves the identical post-batch graph.
    // Drop the conversion cache first so every round's refresh pays
    // the full conversion charge it would pay in production (the
    // fingerprinted cache would miss anyway — the edges changed — but
    // the invalidate keeps the timing intent explicit).
    ctx_ref.invalidate();
    BccOptions ropt;
    ropt.threads = p;
    timer.reset();
    const BccResult ref = biconnected_components(ctx_ref, dyn.graph(), ropt);
    t_ref.push_back(timer.lap());

    if (!churn_labels_match(dyn.result(), ref)) {
      out.label_fail_round = round;
      break;
    }
  }

  for (const double t : t_dyn) out.dyn_mean += t;
  for (const double t : t_ref) out.ref_mean += t;
  out.dyn_mean /= t_dyn.size();
  out.ref_mean /= t_ref.size();
  out.dyn_stats = rep_stats(t_dyn);
  out.ref_stats = rep_stats(t_ref);
  out.speedup = out.dyn_mean > 0 ? out.ref_mean / out.dyn_mean : 0;
  out.updates_per_s =
      out.dyn_mean > 0 ? 2.0 * out.batch / out.dyn_mean : 0;
  out.region_mean = region_sum / kChurnRounds;
  out.fallbacks = dyn.fallbacks();
  return out;
}

}  // namespace parbcc::bench
