// Extension study: robustness across graph families.  The paper
// evaluates on uniform random graphs only; this bench runs the same
// three implementations on structurally extreme families (meshes,
// scale-free R-MAT, cactus block-chains, near-complete graphs) to show
// the relative ordering persists — and where it does not (the
// low-diameter advantage of TV-filter vanishes when there is nothing
// to filter, as in trees/cacti).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "engines.hpp"
#include "graph/io_binary.hpp"

using namespace parbcc;
using namespace parbcc::bench;

namespace {

double run(const EdgeList& g, paper::Algorithm algorithm, int p,
           vid* blocks) {
  SolveOptions opt;
  opt.threads = p;
  opt.compute_cut_info = false;
  double best = 1e30;
  for (int rep = 0; rep < 2; ++rep) {
    const BccResult r = solve(g, algorithm, opt);
    best = std::min(best, r.times.total);
    *blocks = r.num_components;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const int p = env_threads();
  const std::uint64_t seed = env_seed();
  // --graph <file.pbg>: append real graphs (tools/fetch_graphs.sh) to
  // the family table, loaded through the zero-copy mmap path.
  std::vector<std::string> external;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--graph") external.push_back(argv[i + 1]);
  }

  print_header("Graph-family robustness study (extension)");
  std::printf("p = %d\n\n", p);

  struct Family {
    const char* name;
    EdgeList g;
  };
  const Family families[] = {
      {"random 100k x 8", gen::random_connected_gnm(100000, 800000, seed)},
      {"torus 316^2", gen::grid_torus(316, 316)},
      {"rmat scale 17", gen::rmat(17, 8, seed)},
      {"cactus 20k blocks", gen::random_cactus(20000, 8, seed)},
      {"cliquechain 5k x 6", gen::clique_chain(5000, 6)},
      {"dense 1500 @ 70%", gen::dense_retain(1500, 700, seed)},
  };

  std::printf("%-20s %10s %10s %8s %12s %12s %12s\n", "family", "n", "m",
              "blocks", "TV-SMP(s)", "TV-opt(s)", "TV-filter(s)");
  for (const Family& f : families) {
    vid blocks = 0;
    const double t_smp = run(f.g, paper::Algorithm::kTvSmp, p, &blocks);
    const double t_opt = run(f.g, paper::Algorithm::kTvOpt, p, &blocks);
    const double t_filter = run(f.g, paper::Algorithm::kTvFilter, p, &blocks);
    std::printf("%-20s %10u %10u %8u %12.3f %12.3f %12.3f\n", f.name, f.g.n,
                f.g.m(), blocks, t_smp, t_opt, t_filter);
  }
  for (const std::string& path : external) {
    const io::MappedGraph mapped = io::MappedGraph::map(path);
    const EdgeList& g = mapped.graph();
    vid blocks = 0;
    const double t_smp = run(g, paper::Algorithm::kTvSmp, p, &blocks);
    const double t_opt = run(g, paper::Algorithm::kTvOpt, p, &blocks);
    const double t_filter = run(g, paper::Algorithm::kTvFilter, p, &blocks);
    std::printf("%-20s %10u %10u %8u %12.3f %12.3f %12.3f\n", path.c_str(),
                g.n, g.m(), blocks, t_smp, t_opt, t_filter);
  }

  std::printf(
      "\nshape check: TV-filter wins where nontree edges abound (dense,\n"
      "rmat, random) and loses its edge on near-trees (cactus, clique\n"
      "chains) where filtering removes little.\n");
  return 0;
}
