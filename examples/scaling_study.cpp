// Scaling study: run the paper's three TV pipelines over a thread sweep
// on one random instance and print their speedups over Hopcroft-Tarjan —
// a miniature of the paper's Fig. 3 you can point at any graph size.
//
//   ./examples/scaling_study [n] [m] [max_threads]
//   ./examples/scaling_study 200000 2000000 8

#include <cstdio>
#include <cstdlib>

#include "core/bcc.hpp"
#include "graph/generators.hpp"
#include "paper/solve.hpp"

int main(int argc, char** argv) {
  using namespace parbcc;

  const vid n = argc > 1 ? static_cast<vid>(std::atoll(argv[1])) : 100000;
  const eid m = argc > 2 ? static_cast<eid>(std::atoll(argv[2])) : 4 * n;
  const int max_threads = argc > 3 ? std::atoi(argv[3]) : 8;

  std::printf("generating random connected graph: n=%u m=%u ...\n", n, m);
  const EdgeList g = gen::random_connected_gnm(n, m, /*seed=*/7);

  // Sequential baseline.
  BccOptions seq_opt;
  seq_opt.algorithm = BccAlgorithm::kSequential;
  seq_opt.compute_cut_info = false;
  BccContext seq_ctx(1);
  const BccResult seq = biconnected_components(seq_ctx, g, seq_opt);
  std::printf("sequential (Hopcroft-Tarjan): %.3fs, %u components\n\n",
              seq.times.total, seq.num_components);

  std::printf("%-10s %8s %12s %10s\n", "algorithm", "threads", "time(s)",
              "speedup");
  paper::PaperOptions opt;
  opt.compute_cut_info = false;
  for (const paper::Algorithm algorithm :
       {paper::Algorithm::kTvSmp, paper::Algorithm::kTvOpt,
        paper::Algorithm::kTvFilter}) {
    for (int p = 1; p <= max_threads; p *= 2) {
      opt.algorithm = algorithm;
      BccContext ctx(p);
      const BccResult r = paper::solve(ctx, g, opt);
      if (r.num_components != seq.num_components) {
        std::printf("MISMATCH: %s gave %u components, expected %u\n",
                    to_string(algorithm), r.num_components,
                    seq.num_components);
        return 1;
      }
      std::printf("%-10s %8d %12.3f %9.2fx\n", to_string(algorithm), p,
                  r.times.total, seq.times.total / r.times.total);
    }
  }
  std::printf(
      "\nnote: speedups require real cores; on a single-core host the\n"
      "parallel runs only demonstrate correctness and relative work.\n");
  return 0;
}
