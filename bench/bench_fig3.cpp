// Fig. 3 reproduction: execution time of TV-SMP, TV-opt and TV-filter
// vs. number of processors (1..12), against sequential Hopcroft-Tarjan,
// on random graphs with 1M vertices (scaled via PARBCC_N) and
// m in {4n, 10n, 20n ~= n log n}.
//
// Also prints the paper's in-text ratio claims (experiment T1):
//   - TV-SMP does not beat the sequential implementation;
//   - TV-opt takes roughly half the time of TV-SMP;
//   - TV-filter is ~2x TV-opt at m = n log n, speedup up to 4.
//
// Environment: PARBCC_N, PARBCC_THREADS, PARBCC_SEED, PARBCC_REPS
// (see bench_common).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_common.hpp"
#include "engines.hpp"

using namespace parbcc;
using namespace parbcc::bench;

namespace {

vid expected_components(const EdgeList& g) {
  BccOptions o;
  o.algorithm = BccAlgorithm::kSequential;
  o.compute_cut_info = false;
  return solve(g, o).num_components;
}

RepStats run_reps(const EdgeList& g, Engine algorithm, int threads,
                  vid expect) {
  SolveOptions opt;
  opt.threads = threads;
  opt.compute_cut_info = false;
  std::vector<double> samples;
  for (int rep = 0; rep < env_reps(); ++rep) {
    const BccResult r = solve(g, algorithm, opt);
    if (r.num_components != expect) {
      std::printf("!! component mismatch for %s\n", to_string(algorithm));
      std::exit(1);
    }
    samples.push_back(r.times.total);
  }
  return rep_stats(samples);
}

}  // namespace

int main() {
  const vid n = env_n();
  const int max_threads = env_threads();
  const std::uint64_t seed = env_seed();
  const auto threads = thread_sweep(max_threads);

  print_header(
      "Fig. 3 - execution time vs processors, random graphs, three "
      "densities");
  std::printf("n = %u (paper: 1M; set PARBCC_N=1000000 for full scale)\n",
              n);
  std::printf("reps = %d (min reported; median rows when reps >= 3)\n\n",
              env_reps());
  const bool show_median = env_reps() >= 3;

  for (const eid mult : density_multipliers()) {
    const eid m = mult * static_cast<eid>(n);
    std::printf("--- n = %u, m = %u (= %un)%s\n", n, m,
                static_cast<unsigned>(mult),
                mult == 20 ? "  [~ n log n at n = 1M]" : "");
    const EdgeList g = gen::random_connected_gnm(n, m, seed + mult);
    const vid expect = expected_components(g);
    const RepStats seq = run_reps(g, BccAlgorithm::kSequential, 1, expect);

    std::printf("%-16s", "p");
    for (const int p : threads) std::printf("%10d", p);
    std::printf("\n%-16s", "sequential");
    for (std::size_t i = 0; i < threads.size(); ++i) {
      std::printf("%9.3fs", seq.min);
    }
    std::printf("\n");
    if (show_median) {
      std::printf("%-16s", "  (median)");
      for (std::size_t i = 0; i < threads.size(); ++i) {
        std::printf("%9.3fs", seq.median);
      }
      std::printf("\n");
    }

    double smp_best = 1e30, opt_best = 1e30, filter_best = 1e30;
    for (const paper::Algorithm algorithm :
         {paper::Algorithm::kTvSmp, paper::Algorithm::kTvOpt,
          paper::Algorithm::kTvFilter}) {
      std::vector<RepStats> row;
      for (const int p : threads) {
        const RepStats s = run_reps(g, algorithm, p, expect);
        row.push_back(s);
        if (algorithm == paper::Algorithm::kTvSmp) {
          smp_best = std::min(smp_best, s.min);
        }
        if (algorithm == paper::Algorithm::kTvOpt) {
          opt_best = std::min(opt_best, s.min);
        }
        if (algorithm == paper::Algorithm::kTvFilter) {
          filter_best = std::min(filter_best, s.min);
        }
      }
      std::printf("%-16s", to_string(algorithm));
      for (const RepStats& s : row) std::printf("%9.3fs", s.min);
      std::printf("\n");
      if (show_median) {
        std::printf("%-16s", "  (median)");
        for (const RepStats& s : row) std::printf("%9.3fs", s.median);
        std::printf("\n");
      }
    }

    std::printf(
        "[T1] best speedup vs sequential: TV-SMP %.2fx, TV-opt %.2fx, "
        "TV-filter %.2fx\n",
        seq.min / smp_best, seq.min / opt_best, seq.min / filter_best);
    std::printf("[T1] TV-SMP/TV-opt = %.2f, TV-opt/TV-filter = %.2f\n\n",
                smp_best / opt_best, opt_best / filter_best);
  }

  std::printf(
      "note: this host exposes a single hardware core, so wall-clock\n"
      "speedup with p cannot appear; the machine-independent shapes are\n"
      "the algorithm ratios at fixed p and the per-step breakdown\n"
      "(bench_fig4).  See EXPERIMENTS.md.\n");
  return 0;
}
