// Experiment A11: where kAuto's one structural test should sit.
//
// kAuto runs Hopcroft-Tarjan (HT) on small inputs and FastBCC on the
// rest.  This sweep times both engines on G(n, m) at m in {1.25n, 2n,
// 4n, 8n}, doubling n from 2k up to PARBCC_N (default 512k), at every
// p in {1, 2, 4} up to PARBCC_THREADS (default 4).  Solves are warm
// (one BccContext per engine and graph, so the arena and the CSR
// conversion are paid before the timed reps); each cell is the min of
// PARBCC_REPS reps (default 5).  The ratio column is HT / FastBCC: > 1
// means FastBCC wins.  After each p, one line per density reports the
// crossover: the smallest m from which FastBCC wins every larger cell
// of that density (so one noisy cell below it cannot move it).
//
//   PARBCC_THREADS=4 PARBCC_REPS=5 build/bench/bench_crossover [--json f]

#include <cstdio>

#include "bench_common.hpp"
#include "util/thread_pool.hpp"

using namespace parbcc;
using namespace parbcc::bench;

namespace {

double warm_min(Executor& ex, const EdgeList& g, BccAlgorithm algorithm,
                int reps, vid* blocks) {
  BccContext ctx(ex);
  BccOptions opt;
  opt.algorithm = algorithm;
  opt.compute_cut_info = false;
  *blocks = biconnected_components(ctx, g, opt).num_components;
  double best = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    best = std::min(best, biconnected_components(ctx, g, opt).times.total);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const vid cap = env_n(512 * 1024);
  const int max_p = env_threads(4);
  const int reps = env_reps(5);
  const std::uint64_t seed = env_seed();
  JsonWriter json(argc, argv);

  print_header("A11 - HT vs FastBCC crossover on G(n, m)");
  std::printf("reps = %d (min), kAutoSequentialMaxEdges = %llu\n\n", reps,
              static_cast<unsigned long long>(kAutoSequentialMaxEdges));
  std::printf("%3s %6s %9s %9s %10s %11s %7s\n", "p", "m/n", "n", "m",
              "HT(s)", "FastBCC(s)", "HT/FB");

  struct Density {
    const char* name;
    eid num;  // m = num * n / 4
  };
  const Density densities[] = {{"1.25", 5}, {"2", 8}, {"4", 16}, {"8", 32}};
  bool ok = true;
  for (const int p : {1, 2, 4}) {
    if (p > max_p) break;
    Executor ex(p);
    std::vector<eid> crossover;
    for (const Density& d : densities) {
      eid fastbcc_from = 0;  // 0: HT won the largest cell
      for (vid n = 2048; n <= cap; n *= 2) {
        const eid m = static_cast<eid>(d.num * n / 4);
        const EdgeList g = gen::random_connected_gnm(n, m, seed + n + m);
        vid ht_blocks = 0;
        vid fb_blocks = 0;
        const double ht =
            warm_min(ex, g, BccAlgorithm::kSequential, reps, &ht_blocks);
        const double fb =
            warm_min(ex, g, BccAlgorithm::kFastBcc, reps, &fb_blocks);
        if (ht_blocks != fb_blocks) {
          std::printf("!! block counts differ: HT %u, FastBCC %u\n",
                      ht_blocks, fb_blocks);
          ok = false;
        }
        if (ht <= fb) {
          fastbcc_from = 0;
        } else if (fastbcc_from == 0) {
          fastbcc_from = m;
        }
        std::printf("%3d %6s %9u %9u %10.5f %11.5f %7.2f\n", p, d.name, n, m,
                    ht, fb, ht / fb);
        json.add({"crossover", n, m, p, "sequential", {}, ht, ht, {}});
        json.add({"crossover", n, m, p, "FastBCC", {}, fb, fb, {}});
      }
      crossover.push_back(fastbcc_from);
    }
    for (std::size_t i = 0; i < crossover.size(); ++i) {
      std::printf("p = %d, m = %sn: FastBCC wins from m = %u%s\n", p,
                  densities[i].name, crossover[i],
                  crossover[i] == 0 ? " (never)" : "");
    }
    std::printf("\n");
  }
  return ok ? 0 : 1;
}
