// Experiment T4 (paper §4, closing discussion): for very sparse graphs
// the BFS tree's O(d) rounds dominate TV-filter — the pathological case
// is a chain with d = O(n) — and the paper's remedy is to fall back to
// TV-opt whenever m <= 4n.
//
// This bench runs the chain, a shallow star, and random graphs on both
// sides of the m = 4n threshold.  The TV-opt and TV-filter columns
// reproduce the paper's T4; the FastBCC and HT columns show what kAuto
// chooses between today (HT up to kAutoSequentialMaxEdges edges,
// FastBCC above), and "auto->" names the engine it ran.  Every
// engine's block count is checked against HT; a mismatch exits 1.

#include <cstdio>

#include "bench_common.hpp"
#include "engines.hpp"
#include "graph/csr.hpp"
#include "spanning/bfs_tree.hpp"
#include "util/thread_pool.hpp"

using namespace parbcc;
using namespace parbcc::bench;

namespace {

/// The BFS root of every single-root tree below.
constexpr vid kRoot = 0;

struct Run {
  double seconds = 0;
  vid blocks = 0;
  const char* engine = "?";
};

/// Warm solves: one context per engine and graph, primed once, so the
/// cell is the min over `reps` solves of the engine alone (no CSR
/// conversion, no first-touch arena growth).
Run run(Executor& ex, const EdgeList& g, Engine algorithm, int reps) {
  BccContext ctx(ex);
  SolveOptions opt;
  opt.compute_cut_info = false;
  BccResult r = solve(ctx, g, algorithm, opt);
  Run out{r.times.total, r.num_components};
  for (int rep = 0; rep < reps; ++rep) {
    r = solve(ctx, g, algorithm, opt);
    out.seconds = std::min(out.seconds, r.times.total);
  }
  for (const Engine alg :
       {Engine(BccAlgorithm::kSequential), Engine(paper::Algorithm::kTvOpt),
        Engine(paper::Algorithm::kTvFilter), Engine(BccAlgorithm::kFastBcc)}) {
    if (r.trace.find_path(to_string(alg)) != nullptr) out.engine = to_string(alg);
  }
  return out;
}

}  // namespace

int main() {
  const vid n = env_n(200000);
  const int p = env_threads();
  const std::uint64_t seed = env_seed();
  const int reps = env_reps(3);
  Executor ex(p);
  Workspace ws;

  print_header("T4 - pathological diameter and the m <= 4n fallback");
  std::printf("n = %u, p = %d, warm min of %d reps\n\n", n, p, reps);

  struct Case {
    const char* name;
    EdgeList g;
  };
  const Case cases[] = {
      {"chain (d = n-1)", gen::path(n)},
      {"star (d = 2)", gen::star(n)},
      {"random m = 2n", gen::random_connected_gnm(n, 2 * n, seed)},
      {"random m = 4n", gen::random_connected_gnm(n, 4 * n, seed + 1)},
      {"random m = 8n", gen::random_connected_gnm(n, 8 * n, seed + 2)},
  };

  std::printf("%-18s %8s %10s %10s %10s %10s %10s  %s\n", "graph", "BFS d",
              "TV-opt(s)", "filter(s)", "FastBCC(s)", "HT(s)", "auto(s)",
              "auto->");
  bool ok = true;
  for (const Case& c : cases) {
    const Csr csr = Csr::build(ex, ws, c.g);
    const vid depth = bfs_tree(ex, ws, csr, {&kRoot, 1}).num_levels;
    const Run ht = run(ex, c.g, BccAlgorithm::kSequential, reps);
    const Run opt = run(ex, c.g, paper::Algorithm::kTvOpt, reps);
    const Run filter = run(ex, c.g, paper::Algorithm::kTvFilter, reps);
    const Run fast = run(ex, c.g, BccAlgorithm::kFastBcc, reps);
    const Run autos = run(ex, c.g, BccAlgorithm::kAuto, reps);
    std::printf("%-18s %8u %10.3f %10.3f %10.3f %10.3f %10.3f  %s\n", c.name,
                depth, opt.seconds, filter.seconds, fast.seconds, ht.seconds,
                autos.seconds, autos.engine);
    for (const Run* r : {&opt, &filter, &fast, &autos}) {
      if (r->blocks != ht.blocks) {
        std::printf("!! %s found %u blocks on %s, HT found %u\n", r->engine,
                    r->blocks, c.name, ht.blocks);
        ok = false;
      }
    }
  }
  std::printf(
      "\nshape check: the chain maximizes BFS depth (the O(d) term in\n"
      "Alg. 2); a round whose frontier fits in one grain runs inline, so\n"
      "FastBCC and TV-filter pay O(d) cheap rounds, not O(d) forks.\n"
      "'Almost all random graphs have diameter two' (Palmer, cited in\n"
      "the paper) shows in the BFS-d column.\n");
  return ok ? 0 : 1;
}
