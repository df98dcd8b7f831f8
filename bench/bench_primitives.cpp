// Experiment P1 - throughput of the parallel primitives the paper's
// introduction builds on: prefix sum, list ranking, sorting, connected
// components and spanning tree.  Google-benchmark microbenches; the
// argument is the SPMD width p (oversubscribed on a single-core host).
//
//   ./bench_primitives --benchmark_filter=ListRank

#include <benchmark/benchmark.h>

#include <numeric>
#include <random>

#include "connectivity/shiloach_vishkin.hpp"
#include "core/bcc.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "paper/list_ranking.hpp"
#include "paper/sample_sort.hpp"
#include "paper/solve.hpp"
#include "paper/sv_tree.hpp"
#include "paper/traversal_tree.hpp"
#include "scan/scan.hpp"
#include "sort/radix_sort.hpp"
#include "spanning/bfs_tree.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/workspace.hpp"

namespace {

using namespace parbcc;

/// The BFS root of every single-root tree below.
constexpr vid kRoot = 0;

constexpr std::size_t kArray = 1 << 22;  // 4M elements
constexpr vid kGraphN = 200000;
constexpr eid kGraphM = 8 * kGraphN;

const std::vector<std::uint64_t>& keys_fixture() {
  static const auto data = [] {
    std::vector<std::uint64_t> v(kArray);
    Xoshiro256 rng(1);
    for (auto& x : v) x = rng();
    return v;
  }();
  return data;
}

const EdgeList& graph_fixture() {
  static const EdgeList g = gen::random_connected_gnm(kGraphN, kGraphM, 3);
  return g;
}

struct ListFixture {
  std::vector<vid> succ;
  vid head;
};
const ListFixture& list_fixture() {
  static const ListFixture f = [] {
    std::vector<vid> perm(kArray);
    std::iota(perm.begin(), perm.end(), 0);
    Xoshiro256 rng(2);
    std::shuffle(perm.begin(), perm.end(), rng);
    ListFixture out;
    out.succ.assign(kArray, kNoVertex);
    for (std::size_t i = 0; i + 1 < kArray; ++i) {
      out.succ[perm[i]] = perm[i + 1];
    }
    out.head = perm[0];
    return out;
  }();
  return f;
}

void BM_PrefixSum(benchmark::State& state) {
  Executor ex(static_cast<int>(state.range(0)));
  Workspace ws;
  const auto& in = keys_fixture();
  std::vector<std::uint64_t> out(in.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        exclusive_scan(ex, ws, in.data(), out.data(), in.size(),
                       std::uint64_t{0}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(in.size()));
}
BENCHMARK(BM_PrefixSum)->Arg(1)->Arg(4)->Arg(12)->Unit(benchmark::kMillisecond);

void BM_ListRankSequential(benchmark::State& state) {
  const auto& f = list_fixture();
  std::vector<vid> rank(f.succ.size());
  for (auto _ : state) {
    list_rank_sequential(f.succ.data(), rank.data(), f.succ.size(), f.head);
    benchmark::DoNotOptimize(rank.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.succ.size()));
}
BENCHMARK(BM_ListRankSequential)->Unit(benchmark::kMillisecond);

void BM_ListRankWyllie(benchmark::State& state) {
  Executor ex(static_cast<int>(state.range(0)));
  Workspace ws;
  const auto& f = list_fixture();
  std::vector<vid> rank(f.succ.size());
  for (auto _ : state) {
    list_rank_wyllie(ex, ws, f.succ.data(), rank.data(), f.succ.size(), f.head);
    benchmark::DoNotOptimize(rank.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.succ.size()));
}
BENCHMARK(BM_ListRankWyllie)->Arg(4)->Iterations(2)->Unit(benchmark::kMillisecond);

void BM_ListRankHelmanJaja(benchmark::State& state) {
  Executor ex(static_cast<int>(state.range(0)));
  Workspace ws;
  const auto& f = list_fixture();
  std::vector<vid> rank(f.succ.size());
  for (auto _ : state) {
    list_rank_hj(ex, ws, f.succ.data(), rank.data(), f.succ.size(), f.head);
    benchmark::DoNotOptimize(rank.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.succ.size()));
}
BENCHMARK(BM_ListRankHelmanJaja)
    ->Arg(2)
    ->Arg(4)
    ->Arg(12)
    ->Unit(benchmark::kMillisecond);

void BM_ListRankIndependentSet(benchmark::State& state) {
  Executor ex(static_cast<int>(state.range(0)));
  Workspace ws;
  const auto& f = list_fixture();
  std::vector<vid> rank(f.succ.size());
  for (auto _ : state) {
    list_rank_independent_set(ex, ws, f.succ.data(), rank.data(), f.succ.size(),
                              f.head);
    benchmark::DoNotOptimize(rank.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.succ.size()));
}
BENCHMARK(BM_ListRankIndependentSet)
    ->Arg(4)
    ->Iterations(2)
    ->Unit(benchmark::kMillisecond);

void BM_SampleSort(benchmark::State& state) {
  Executor ex(static_cast<int>(state.range(0)));
  Workspace ws;
  for (auto _ : state) {
    state.PauseTiming();
    auto data = keys_fixture();
    state.ResumeTiming();
    sample_sort(ex, ws, data.data(), data.size());
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kArray));
}
BENCHMARK(BM_SampleSort)->Arg(1)->Arg(4)->Iterations(3)->Unit(benchmark::kMillisecond);

void BM_RadixSort(benchmark::State& state) {
  Executor ex(static_cast<int>(state.range(0)));
  Workspace ws;
  for (auto _ : state) {
    state.PauseTiming();
    auto data = keys_fixture();
    state.ResumeTiming();
    radix_sort_u64(ex, ws, data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kArray));
}
BENCHMARK(BM_RadixSort)->Arg(1)->Arg(4)->Iterations(3)->Unit(benchmark::kMillisecond);

void BM_ConnectedComponentsSV(benchmark::State& state) {
  Executor ex(static_cast<int>(state.range(0)));
  Workspace ws;
  const EdgeList& g = graph_fixture();
  std::vector<vid> labels(g.n);
  for (auto _ : state) {
    connected_components_sv(ex, ws, g.n, g.edges, labels);
    benchmark::DoNotOptimize(labels.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.m()));
}
BENCHMARK(BM_ConnectedComponentsSV)
    ->Arg(1)
    ->Arg(4)
    ->Arg(12)
    ->Unit(benchmark::kMillisecond);

void BM_SpanningTreeSV(benchmark::State& state) {
  Executor ex(static_cast<int>(state.range(0)));
  Workspace ws;
  const EdgeList& g = graph_fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sv_spanning_forest(ex, ws, g.n, g.edges));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.m()));
}
BENCHMARK(BM_SpanningTreeSV)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_SpanningTreeTraversal(benchmark::State& state) {
  Executor ex(static_cast<int>(state.range(0)));
  Workspace ws;
  const EdgeList& g = graph_fixture();
  static const Csr csr = Csr::build(ex, ws, g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(traversal_spanning_tree(ex, csr, 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.m()));
}
BENCHMARK(BM_SpanningTreeTraversal)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_BfsTree(benchmark::State& state) {
  Executor ex(static_cast<int>(state.range(0)));
  Workspace ws;
  const EdgeList& g = graph_fixture();
  static const Csr csr = Csr::build(ex, ws, g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bfs_tree(ex, ws, csr, {&kRoot, 1}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.m()));
}
BENCHMARK(BM_BfsTree)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_CsrBuild(benchmark::State& state) {
  Executor ex(static_cast<int>(state.range(0)));
  Workspace ws;
  const EdgeList& g = graph_fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Csr::build(ex, ws, g));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.m()));
}
BENCHMARK(BM_CsrBuild)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// --- Arena vs heap scratch, and warm vs cold solve contexts. ----------
// The Workspace exists so that steady-state solves stop paying the
// allocate + fault + memset tax on their O(n + m) temporaries; these
// benches measure exactly that tax at both the primitive level (a bare
// scratch acquisition) and the whole-solve level (BccContext reuse).

void BM_ScratchHeapVector(benchmark::State& state) {
  // What every primitive did before the arena: a fresh zero-filled
  // vector per call.  Touch one byte per page so lazily-mapped pages
  // are actually materialized, as a real consumer would.
  const std::size_t n = kArray;
  for (auto _ : state) {
    std::vector<vid> scratch(n);
    benchmark::DoNotOptimize(scratch.data());
    for (std::size_t i = 0; i < n; i += 1024) scratch[i] = 1;
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ScratchHeapVector)->Unit(benchmark::kMillisecond);

void BM_ScratchWorkspaceFrame(benchmark::State& state) {
  // The same acquisition through a warm Workspace: a pointer bump into
  // already-mapped pages, uninitialized by contract.
  const std::size_t n = kArray;
  Workspace ws;
  {
    Workspace::Frame prime(ws);
    ws.alloc<vid>(n);
  }
  for (auto _ : state) {
    Workspace::Frame frame(ws);
    const std::span<vid> scratch = ws.alloc<vid>(n);
    benchmark::DoNotOptimize(scratch.data());
    for (std::size_t i = 0; i < n; i += 1024) scratch[i] = 1;
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.counters["reuse_hits"] =
      benchmark::Counter(static_cast<double>(ws.reuse_hits()));
}
BENCHMARK(BM_ScratchWorkspaceFrame)->Unit(benchmark::kMillisecond);

void BM_BccSolveColdContext(benchmark::State& state) {
  // Every iteration pays the full first-solve cost: fresh arena growth,
  // page faults, and the edge-list -> CSR conversion.
  const int p = static_cast<int>(state.range(0));
  const EdgeList& g = graph_fixture();
  paper::PaperOptions opt;
  opt.algorithm = paper::Algorithm::kTvOpt;
  opt.compute_cut_info = false;
  std::size_t peak = 0;
  for (auto _ : state) {
    BccContext ctx(p);
    const BccResult r = paper::solve(ctx, g, opt);
    peak = r.peak_workspace_bytes;
    benchmark::DoNotOptimize(r.num_components);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.m()));
  state.counters["peak_ws_MB"] =
      benchmark::Counter(static_cast<double>(peak) / (1024.0 * 1024.0));
}
BENCHMARK(BM_BccSolveColdContext)
    ->Arg(1)
    ->Arg(4)
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond);

void BM_BccSolveWarmContext(benchmark::State& state) {
  // Steady state: the context solved this shape once before timing, so
  // the arena performs zero growth and the conversion cache hits.
  const int p = static_cast<int>(state.range(0));
  const EdgeList& g = graph_fixture();
  paper::PaperOptions opt;
  opt.algorithm = paper::Algorithm::kTvOpt;
  opt.compute_cut_info = false;
  BccContext ctx(p);
  paper::solve(ctx, g, opt);  // prime
  const std::uint64_t growth = ctx.workspace().growth_count();
  std::size_t peak = 0;
  for (auto _ : state) {
    const BccResult r = paper::solve(ctx, g, opt);
    peak = r.peak_workspace_bytes;
    benchmark::DoNotOptimize(r.num_components);
  }
  if (ctx.workspace().growth_count() != growth) {
    state.SkipWithError("warm solve grew the arena");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.m()));
  state.counters["peak_ws_MB"] =
      benchmark::Counter(static_cast<double>(peak) / (1024.0 * 1024.0));
}
BENCHMARK(BM_BccSolveWarmContext)
    ->Arg(1)
    ->Arg(4)
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond);

}  // namespace
