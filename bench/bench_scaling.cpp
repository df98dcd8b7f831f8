// Size-scaling study (supplement to Fig. 3): fixed density m = 8n,
// sweeping n, to confirm every implementation's running time grows
// linearly in the input size — the property that makes the asymptotic
// comparisons in the paper meaningful at 1M vertices.
//
// Each configuration is timed twice: "cold" on a fresh BccContext
// (first-touch arena growth and CSR conversion included) and "warm" on
// a context that has already solved the same shape, so the arena serves
// every scratch request from capacity and the conversion cache hits.
// The warm column is the steady-state number an application doing
// repeated solves would see; warm should never exceed cold.

#include <cstdio>

#include "bench_common.hpp"
#include "engines.hpp"

using namespace parbcc;
using namespace parbcc::bench;

namespace {

struct ColdWarm {
  double cold = 1e30;
  double warm = 1e30;
  std::size_t peak_bytes = 0;
};

ColdWarm run(const EdgeList& g, Engine algorithm, int p, int reps) {
  SolveOptions opt;
  opt.compute_cut_info = false;
  ColdWarm out;
  for (int rep = 0; rep < reps; ++rep) {
    BccContext fresh(p);
    out.cold =
        std::min(out.cold, solve(fresh, g, algorithm, opt).times.total);
  }
  BccContext ctx(p);
  const BccResult primed = solve(ctx, g, algorithm, opt);
  out.peak_bytes = primed.peak_workspace_bytes;
  for (int rep = 0; rep < reps; ++rep) {
    out.warm = std::min(out.warm, solve(ctx, g, algorithm, opt).times.total);
  }
  return out;
}

}  // namespace

int main() {
  const int p = env_threads();
  const std::uint64_t seed = env_seed();
  const int reps = env_reps();
  const vid cap = env_n(400000);

  print_header("Size scaling at fixed density m = 8n (cold vs warm context)");
  std::printf("p = %d, reps = %d; c = fresh BccContext per solve,\n"
              "w = reused context (arena + conversion cache warm)\n\n",
              p, reps);
  std::printf("%9s %9s %8s %8s %8s %8s %8s %8s %8s %8s %8s\n", "n", "m",
              "seq-c", "seq-w", "smp-c", "smp-w", "opt-c", "opt-w", "flt-c",
              "flt-w", "peak(MB)");

  for (vid n = 25000; n <= cap; n *= 2) {
    const eid m = 8 * static_cast<eid>(n);
    const EdgeList g = gen::random_connected_gnm(n, m, seed + n);
    const ColdWarm seq = run(g, BccAlgorithm::kSequential, 1, reps);
    const ColdWarm smp = run(g, paper::Algorithm::kTvSmp, p, reps);
    const ColdWarm opt = run(g, paper::Algorithm::kTvOpt, p, reps);
    const ColdWarm flt = run(g, paper::Algorithm::kTvFilter, p, reps);
    // TV-SMP touches the most scratch (full Euler tour on all m edges),
    // so its arena peak is the table's memory column.
    std::printf(
        "%9u %9u %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f %8.1f\n",
        n, m, seq.cold, seq.warm, smp.cold, smp.warm, opt.cold, opt.warm,
        flt.cold, flt.warm,
        static_cast<double>(smp.peak_bytes) / (1024.0 * 1024.0));
  }
  std::printf(
      "\nshape check: every column should roughly double down the rows\n"
      "(doubling n at fixed density doubles the work of all four\n"
      "linear-work implementations), and each -w column should be at or\n"
      "below its -c column (warm solves skip arena growth and, for the\n"
      "adjacency-based drivers, the CSR conversion).\n");
  return 0;
}
