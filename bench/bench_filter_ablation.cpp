// Experiments T2 and T3 (paper §4, in-text claims):
//
//  T2 - the filtering step removes at least max(m - 2(n-1), 0) edges,
//       and the denser the graph the larger the fraction removed; the
//       auxiliary graph TV runs on shrinks accordingly.
//  T3 - two BFS runs count biconnected components on bridgeless graphs:
//       the number of nontrivial components of F equals the number of
//       blocks.
//
// Density sweep at fixed n, reporting kept/filtered edge counts, the
// time spent filtering vs the time it saves in TV's core steps.

#include <cstdio>
#include <utility>

#include "bench_common.hpp"
#include "graph/csr.hpp"
#include "paper/solve.hpp"
#include "paper/sv_tree.hpp"
#include "scan/compact.hpp"
#include "spanning/bfs_tree.hpp"
#include "util/thread_pool.hpp"

using namespace parbcc;
using namespace parbcc::bench;

/// The BFS root of every single-root tree below.
constexpr vid kRoot = 0;

int main() {
  const vid n = env_n(200000);
  const int p = env_threads();
  const std::uint64_t seed = env_seed();

  print_header("T2 - edges filtered and time traded, density sweep");
  std::printf("n = %u, p = %d, reps = %d (fastest run reported)\n\n", n, p,
              env_reps());
  std::printf("%6s %12s %12s %12s %10s %12s %12s\n", "m/n", "m", "kept",
              "filtered", "bound", "filter(s)", "core-save(s)");

  Executor ex(p);
  Workspace ws;
  for (const eid mult : {eid{2}, eid{4}, eid{8}, eid{12}, eid{16}, eid{20}}) {
    const eid m = mult * static_cast<eid>(n);
    const EdgeList g = gen::random_connected_gnm(n, m, seed + mult);

    // Filtering pipeline pieces, timed via the driver's own steps.
    paper::PaperOptions opt;
    opt.compute_cut_info = false;
    const auto fastest_of = [&](paper::Algorithm algorithm) {
      opt.algorithm = algorithm;
      BccResult best;
      for (int rep = 0; rep < env_reps(); ++rep) {
        BccContext ctx(ex);
        BccResult r = paper::solve(ctx, g, opt);
        if (rep == 0 || r.times.total < best.times.total) best = std::move(r);
      }
      return best;
    };
    const BccResult filt = fastest_of(paper::Algorithm::kTvFilter);
    const BccResult tvopt = fastest_of(paper::Algorithm::kTvOpt);

    // Count kept edges exactly (T plus F).
    const Csr csr = Csr::build(ex, ws, g);
    const BfsTree bfs = bfs_tree(ex, ws, csr, {&kRoot, 1});
    std::vector<std::uint8_t> in_tree(g.m(), 0);
    for (vid v = 1; v < g.n; ++v) in_tree[bfs.parent_edge[v]] = 1;
    std::vector<eid> nontree(g.m());
    nontree.resize(pack_indices(
        ex, ws, g.m(), [&](std::size_t e) { return in_tree[e] == 0; },
        nontree));
    const SpanningForest forest =
        sv_spanning_forest(ex, ws, g.n, g.edges, nontree);
    const eid kept = (n - 1) + static_cast<eid>(forest.tree_edges.size());
    const eid filtered = m - kept;
    const eid bound = m > 2 * (n - 1) ? m - 2 * (n - 1) : 0;

    const double core_tvopt = tvopt.times.low_high + tvopt.times.label_edge +
                              tvopt.times.connected_components;
    const double core_filter = filt.times.low_high + filt.times.label_edge +
                               filt.times.connected_components;

    std::printf("%6u %12u %12u %12u %10u %12.3f %12.3f\n",
                static_cast<unsigned>(mult), m, kept, filtered, bound,
                filt.times.filtering, core_tvopt - core_filter);
    if (filtered < bound) {
      std::printf("!! T2 VIOLATED: filtered %u < bound %u\n", filtered, bound);
      return 1;
    }
  }
  std::printf(
      "\nT2 holds when 'filtered' >= 'bound' on every row, and the\n"
      "'core-save' column exceeding 'filter(s)' is what makes TV-filter\n"
      "profitable on the denser rows.\n\n");

  print_header("T3 - two BFS runs count blocks on bridgeless graphs");
  std::printf("%8s %10s %16s\n", "blocks", "n", "F components");
  for (const vid blocks : {vid{100}, vid{1000}, vid{10000}}) {
    const EdgeList g = gen::random_cactus(blocks, 8, seed + blocks);
    const Csr csr = Csr::build(ex, ws, g);
    const BfsTree bfs = bfs_tree(ex, ws, csr, {&kRoot, 1});
    std::vector<std::uint8_t> in_tree(g.m(), 0);
    for (vid v = 1; v < g.n; ++v) in_tree[bfs.parent_edge[v]] = 1;
    std::vector<eid> nontree(g.m());
    nontree.resize(pack_indices(
        ex, ws, g.m(), [&](std::size_t e) { return in_tree[e] == 0; },
        nontree));
    const SpanningForest forest =
        sv_spanning_forest(ex, ws, g.n, g.edges, nontree);
    std::vector<std::uint8_t> nontrivial(g.n, 0);
    for (const eid e : forest.tree_edges) {
      nontrivial[forest.comp[g.edges[e].u]] = 1;
    }
    vid count = 0;
    for (vid v = 0; v < g.n; ++v) count += nontrivial[v];
    std::printf("%8u %10u %16u  %s\n", blocks, g.n, count,
                count == blocks ? "== blocks, T3 holds" : "!! MISMATCH");
    if (count != blocks) return 1;
  }
  return 0;
}
