// Fig. 4 reproduction: breakdown of execution time into the paper's
// steps — Spanning-tree, Euler-tour, Root, Low-high, Label-edge,
// Connected-components, Filtering — for TV-SMP, TV-opt, TV-filter and
// FastBCC at 12 processors, on random graphs of 1M vertices (PARBCC_N
// to scale) with m in {4n, 10n, 20n}.  (FastBCC has no Filtering bar;
// its Euler-tour/Low-high rows cover the compressed tagging sweeps.)
//
// One extra row, "conversion", reports the edge-list -> adjacency
// conversion TV-opt and TV-filter pay (the representation-discrepancy
// cost discussed in the paper's introduction); the paper folds it into
// its Spanning-tree bar, we keep it visible.

#include <cstdio>
#include <cstdlib>

#include "bench_common.hpp"
#include "engines.hpp"

using namespace parbcc;
using namespace parbcc::bench;

namespace {

/// Breakdown of the fastest repetition, plus the min/median of the
/// totals across all PARBCC_REPS repetitions.
struct RepRun {
  StepTimes best;
  RepStats total;
};

RepRun run(const EdgeList& g, Engine algorithm, int threads) {
  SolveOptions opt;
  opt.threads = threads;
  opt.compute_cut_info = false;
  RepRun out;
  out.best.total = 1e30;
  std::vector<double> totals;
  for (int rep = 0; rep < env_reps(); ++rep) {
    const BccResult r = solve(g, algorithm, opt);
    totals.push_back(r.times.total);
    if (r.times.total < out.best.total) out.best = r.times;
  }
  out.total = rep_stats(totals);
  return out;
}

void print_row(const char* label, double a, double b, double c, double d) {
  std::printf("  %-22s %10.3f %10.3f %10.3f %10.3f\n", label, a, b, c, d);
}

}  // namespace

int main(int argc, char** argv) {
  TraceOut trace_out(argc, argv);
  const vid n = env_n();
  const int p = env_threads();
  const std::uint64_t seed = env_seed();

  print_header("Fig. 4 - per-step breakdown at p processors");
  std::printf("n = %u, p = %d (paper: n = 1M, p = 12), reps = %d\n\n", n, p,
              env_reps());

  for (const eid mult : density_multipliers()) {
    const eid m = mult * static_cast<eid>(n);
    const EdgeList g = gen::random_connected_gnm(n, m, seed + mult);

    const RepRun smp_run = run(g, paper::Algorithm::kTvSmp, p);
    const RepRun opt_run = run(g, paper::Algorithm::kTvOpt, p);
    const RepRun filter_run = run(g, paper::Algorithm::kTvFilter, p);
    const RepRun fast_run = run(g, BccAlgorithm::kFastBcc, p);
    const StepTimes& smp = smp_run.best;
    const StepTimes& opt = opt_run.best;
    const StepTimes& filter = filter_run.best;
    const StepTimes& fast = fast_run.best;

    std::printf("--- m = %u (= %un)   seconds per step\n", m,
                static_cast<unsigned>(mult));
    std::printf("  %-22s %10s %10s %10s %10s\n", "step", "TV-SMP", "TV-opt",
                "TV-filter", "FastBCC");
    print_row("conversion", smp.conversion, opt.conversion, filter.conversion,
              fast.conversion);
    print_row("Spanning-tree", smp.spanning_tree, opt.spanning_tree,
              filter.spanning_tree, fast.spanning_tree);
    print_row("Euler-tour", smp.euler_tour, opt.euler_tour, filter.euler_tour,
              fast.euler_tour);
    print_row("Root", smp.root_tree, opt.root_tree, filter.root_tree,
              fast.root_tree);
    print_row("Low-high", smp.low_high, opt.low_high, filter.low_high,
              fast.low_high);
    print_row("Label-edge", smp.label_edge, opt.label_edge, filter.label_edge,
              fast.label_edge);
    print_row("Connected-components", smp.connected_components,
              opt.connected_components, filter.connected_components,
              fast.connected_components);
    print_row("Filtering", smp.filtering, opt.filtering, filter.filtering,
              fast.filtering);
    print_row("TOTAL (min)", smp_run.total.min, opt_run.total.min,
              filter_run.total.min, fast_run.total.min);
    print_row("TOTAL (median)", smp_run.total.median, opt_run.total.median,
              filter_run.total.median, fast_run.total.median);
    std::printf("\n");
  }

  // With --trace-out: one traced solve per algorithm on the sparsest
  // instance, exported as Chrome trace segments.  This is the
  // ground-truth view behind the table above — every printed step is a
  // span (or span family) in its segment, so a step that disagrees
  // with its bar is visible as a gap or an unattributed stretch.
  if (trace_out.enabled()) {
    const EdgeList g =
        gen::random_connected_gnm(n, 4 * static_cast<eid>(n), seed + 4);
    for (const Engine alg :
         {Engine(BccAlgorithm::kSequential), Engine(paper::Algorithm::kTvSmp),
          Engine(paper::Algorithm::kTvOpt), Engine(paper::Algorithm::kTvFilter),
          Engine(BccAlgorithm::kFastBcc)}) {
      Trace trace(p);
      SolveOptions opt;
      opt.threads = p;
      opt.compute_cut_info = false;
      opt.trace = &trace;
      const BccResult r = solve(g, alg, opt);
      std::printf("trace: %s solved n=%u m=%u into %u components\n",
                  to_string(alg), g.n, g.m(), r.num_components);
      trace_out.add(to_string(alg), trace);
    }
  }
  return 0;
}
