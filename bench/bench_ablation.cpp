// Experiment A1 - ablation of TV-opt's engineering choices (paper §3.2)
// and of the frontier engines feeding TV-filter:
//
//  (a) rooting the spanning tree: classic Euler tour + list ranking
//      (sequential walk vs Wyllie pointer jumping vs Helman-JáJá) and
//      arc pairing by sample sort vs bucket scatter, against the merged
//      traversal-tree + level-sweep pipeline;
//  (b) low/high aggregation: sparse-table RMQ vs level sweeps;
//  (c) frontier engines: BFS top-down vs bottom-up vs the
//      direction-optimizing hybrid (edge inspections + round mix), and
//      Shiloach-Vishkin classic vs FastSV (convergence rounds) beside
//      the library's union-find connected_components, on a
//      low-diameter random graph and a high-diameter torus;
//  (d) the aux pipeline: fused union-find hooking (AuxMode::kFused)
//      against the staged/compacted G' + Shiloach-Vishkin chain
//      (kMaterialized), at m = 4n and m = 20n and at p = 1 and full
//      width — the four cells the acceptance table reads.
//  (g) the batch-dynamic engine: apply_batch against a fresh re-solve
//      on the streaming-churn workload (dynamic_churn.hpp), at the
//      acceptance scale n = 200k on the random and power-law families
//      and p in {1, full width}.  Hard-fails when batch-update
//      throughput is below 10x the re-solve arm at batch <= 1% of m,
//      or when the engine's labels ever diverge from the fresh-solve
//      oracle.  `--dynamic-only` runs it alone (the BENCH_dynamic.json
//      gate in ci.sh).
//
// Each variant is timed in isolation on the same workload so the cost
// the paper attributes to "list ranking instead of prefix sums" is
// directly visible.  Section (c) hard-fails (exit 1) if the hybrid BFS
// does not beat top-down on inspections for the low-diameter family or
// FastSV does not converge in fewer rounds than classic, or if the
// union-find's labels differ from SV's; section (d)
// hard-fails if the fused route's aux chain (label_edge +
// connected_components) is not faster than the materialized chain, if
// its workspace high-water mark is not smaller (the 3m staging buffer
// must actually be gone), or if the two routes' labels differ — so a
// broken kernel fails CI loudly instead of silently regressing.
//
// `--json <path>` additionally writes every measured configuration as
// a JSON record (see bench_common.hpp).

#include <cstdio>
#include <string_view>

#include "bench_common.hpp"
#include "connectivity/components.hpp"
#include "core/bcc.hpp"
#include "dynamic_churn.hpp"
#include "engines.hpp"
#include "eulertour/tree_computations.hpp"
#include "graph/csr.hpp"
#include "paper/euler_tour.hpp"
#include "paper/lowhigh.hpp"
#include "paper/shiloach_vishkin.hpp"
#include "paper/sv_tree.hpp"
#include "paper/traversal_tree.hpp"
#include "paper/tv_core.hpp"
#include "spanning/bfs_tree.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

using namespace parbcc;
using namespace parbcc::bench;

namespace {

/// The BFS root of every single-root tree below.
constexpr vid kRoot = 0;

/// Time `fn` PARBCC_REPS times (at least `min_reps`); report min and
/// median seconds.  Gated comparisons pass a floor so a REPS=1 smoke
/// still gets a best-of-3 min on each arm.
template <class F>
RepStats timed_reps(F&& fn, int min_reps = 0) {
  std::vector<double> samples;
  for (int rep = 0; rep < std::max(env_reps(), min_reps); ++rep) {
    Timer t;
    fn();
    samples.push_back(t.seconds());
  }
  return rep_stats(samples);
}

/// Section (c): the two frontier engines on one graph family.
/// Returns false if an acceptance assertion failed.
bool frontier_section(Executor& ex, JsonWriter& json, const char* family,
                      const EdgeList& g, bool assert_bfs_inspections) {
  Workspace ws;
  const Csr csr = Csr::build(ex, ws, g);
  bool ok = true;

  std::printf("  %s (n = %u, m = %u)\n", family, g.n, g.m());
  std::printf("    %-32s %10s %10s %14s %8s\n", "variant", "min(s)",
              "median(s)", "inspected", "rounds");

  BfsTree trees[3];
  const struct {
    BfsMode mode;
    const char* name;
  } bfs_modes[] = {{BfsMode::kTopDown, "bfs top-down"},
                   {BfsMode::kBottomUp, "bfs bottom-up"},
                   {BfsMode::kAuto, "bfs hybrid"}};
  for (int i = 0; i < 3; ++i) {
    const RepStats st = timed_reps([&] {
      trees[i] = bfs_tree(ex, ws, csr, {&kRoot, 1}, bfs_modes[i].mode);
    });
    const vid rounds = trees[i].top_down_rounds + trees[i].bottom_up_rounds;
    std::printf("    %-32s %10.3f %10.3f %14llu %8u\n", bfs_modes[i].name,
                st.min, st.median,
                static_cast<unsigned long long>(trees[i].inspected_edges),
                rounds);
    json.add({"ablation-frontier", g.n, g.m(), ex.threads(),
              std::string(family) + "/" + bfs_modes[i].name, {}, st.min,
              st.median,
              {{"inspected_edges",
                static_cast<double>(trees[i].inspected_edges)},
               {"rounds", static_cast<double>(rounds)}}});
  }
  if (assert_bfs_inspections &&
      trees[2].inspected_edges >= trees[0].inspected_edges) {
    std::printf("!! hybrid BFS inspected %llu edges, top-down %llu on %s\n",
                static_cast<unsigned long long>(trees[2].inspected_edges),
                static_cast<unsigned long long>(trees[0].inspected_edges),
                family);
    ok = false;
  }

  const struct {
    SvMode mode;
    const char* name;
  } sv_modes[] = {{SvMode::kClassic, "sv classic"}, {SvMode::kFastSV, "sv fastsv"}};
  vid sv_rounds[2] = {0, 0};
  std::vector<vid> labels(g.n);
  for (int i = 0; i < 2; ++i) {
    SvStats stats;
    const RepStats st = timed_reps([&] {
      stats = {};
      connected_components_sv(ex, ws, g.n, g.edges, labels, sv_modes[i].mode,
                              &stats);
    });
    SpanningForest forest = sv_spanning_forest(ex, ws, g.n, g.edges,
                                               sv_modes[i].mode);
    sv_rounds[i] = stats.rounds;
    std::printf("    %-32s %10.3f %10.3f %14s %8u\n", sv_modes[i].name, st.min,
                st.median, "-", stats.rounds);
    json.add({"ablation-frontier", g.n, g.m(), ex.threads(),
              std::string(family) + "/" + sv_modes[i].name, {}, st.min,
              st.median,
              {{"rounds", static_cast<double>(stats.rounds)},
               {"forest_rounds", static_cast<double>(forest.rounds)}}});
  }
  if (sv_rounds[1] >= sv_rounds[0]) {
    std::printf("!! FastSV took %u rounds, classic %u on %s\n", sv_rounds[1],
                sv_rounds[0], family);
    ok = false;
  }

  // The library's own routine (concurrent union-find) beside the
  // paper's SV: same contract, so the labels must match element for
  // element.
  std::vector<vid> uf_labels(g.n);
  const RepStats uf = timed_reps(
      [&] { connected_components(ex, ws, g.n, g.edges, uf_labels); });
  std::printf("    %-32s %10.3f %10.3f %14s %8s\n", "union-find", uf.min,
              uf.median, "-", "-");
  json.add({"ablation-frontier", g.n, g.m(), ex.threads(),
            std::string(family) + "/union-find", {}, uf.min, uf.median, {}});
  if (uf_labels != labels) {
    std::printf("!! union-find labels differ from SV's on %s\n", family);
    ok = false;
  }
  std::printf("\n");
  return ok;
}

/// Section (d): fused vs materialized aux pipeline on one graph.
/// Both routes run behind tv_label_edges on the same TV-opt-style tree,
/// so the timed difference is exactly the Alg. 1 + CC chain.  Returns
/// false if an acceptance assertion failed.
bool aux_fusion_section(Executor& ex, JsonWriter& json, const char* family,
                        const EdgeList& g) {
  Workspace ws;
  const Csr csr = Csr::build(ex, ws, g);
  RootedSpanningTree tree;
  tree.root = 0;
  {
    const TraversalTree tt = traversal_spanning_tree(ex, csr, 0);
    tree.parent = tt.parent;
    tree.parent_edge = tt.parent_edge;
  }
  const ChildrenCsr children = build_children(ex, ws, tree.parent, 0);
  const LevelStructure levels = build_levels(ex, children, 0);
  preorder_and_size(ex, children, levels, 0, tree.pre, tree.sub);
  const std::vector<vid> owner = make_tree_owner(ex, g.m(), tree);

  bool ok = true;
  std::printf("  %s (n = %u, m = %u, p = %d)\n", family, g.n, g.m(),
              ex.threads());
  std::printf("    %-14s %10s %10s %12s %12s %14s\n", "route", "min(s)",
              "median(s)", "label(s)", "cc(s)", "peak scratch");

  const struct {
    AuxMode mode;
    const char* name;
  } routes[] = {{AuxMode::kMaterialized, "materialized"},
                {AuxMode::kFused, "fused"}};
  double chain[2] = {0, 0};
  double label_s[2] = {0, 0};
  double cc_s[2] = {0, 0};
  std::size_t peak[2] = {0, 0};
  std::vector<vid> labels[2];
  for (int i = 0; i < 2; ++i) {
    Workspace ws;
    chain[i] = 1e300;
    const RepStats st = timed_reps([&] {
      TvCoreTimes t;
      labels[i] = tv_label_edges(ex, ws, g.edges, tree, owner,
                                 LowHighMethod::kLevelSweep, &children,
                                 &levels, SvMode::kFastSV, routes[i].mode, &t);
      const double c = t.label_edge + t.connected_components;
      if (c < chain[i]) {
        chain[i] = c;
        label_s[i] = t.label_edge;
        cc_s[i] = t.connected_components;
      }
    });
    peak[i] = ws.peak_bytes();
    std::printf("    %-14s %10.3f %10.3f %12.3f %12.3f %14zu\n",
                routes[i].name, st.min, st.median, label_s[i], cc_s[i],
                peak[i]);
    json.add({"ablation-aux", g.n, g.m(), ex.threads(),
              std::string(family) + "/" + routes[i].name, {}, st.min,
              st.median,
              {{"aux_chain_seconds", chain[i]},
               {"label_edge_seconds", label_s[i]},
               {"connected_components_seconds", cc_s[i]},
               {"peak_workspace_bytes", static_cast<double>(peak[i])}}});
  }

  if (labels[0] != labels[1]) {
    std::printf("!! fused and materialized labels differ on %s\n", family);
    ok = false;
  }
  if (chain[1] >= chain[0]) {
    std::printf("!! fused aux chain %.4fs is not faster than "
                "materialized %.4fs on %s\n",
                chain[1], chain[0], family);
    ok = false;
  }
  if (peak[1] >= peak[0]) {
    std::printf("!! fused peak scratch %zu B is not below materialized "
                "%zu B on %s\n",
                peak[1], peak[0], family);
    ok = false;
  }
  std::printf("    fused/materialized aux chain: %.2fx  (%.0f%% saved)\n\n",
              chain[0] > 0 ? chain[1] / chain[0] : 0.0,
              chain[0] > 0 ? 100.0 * (1.0 - chain[1] / chain[0]) : 0.0);
  return ok;
}

/// Section (e): whole-solve FastBCC vs TV-filter through the public
/// dispatcher, plus the kAuto pick for the same cell.  Warm contexts:
/// the conversion is paid once up front so the timed reps measure the
/// engines, not the shared CSR build.  Returns false if an acceptance
/// assertion failed.
bool fastbcc_section(Executor& ex, JsonWriter& json, const char* family,
                     const EdgeList& g, bool assert_fastbcc_wins,
                     BccAlgorithm expected_auto_pick) {
  bool ok = true;
  std::printf("  %s (n = %u, m = %u, p = %d)\n", family, g.n, g.m(),
              ex.threads());
  std::printf("    %-14s %10s %10s %14s\n", "engine", "min(s)", "median(s)",
              "peak scratch");

  const struct {
    Engine alg;
    const char* name;
  } engines[] = {{paper::Algorithm::kTvFilter, "tv-filter"},
                 {BccAlgorithm::kFastBcc, "fastbcc"}};
  double best[2] = {0, 0};
  std::size_t peak[2] = {0, 0};
  std::vector<vid> labels[2];
  SolveOptions opt;
  opt.compute_cut_info = false;
  for (int i = 0; i < 2; ++i) {
    BccContext ctx(ex);
    // Warm conversion + arena.
    (void)solve(ctx, g, engines[i].alg, opt);
    BccResult r;
    const RepStats st =
        timed_reps([&] { r = solve(ctx, g, engines[i].alg, opt); });
    best[i] = st.min;
    peak[i] = r.peak_workspace_bytes;
    labels[i] = std::move(r.edge_component);
    std::printf("    %-14s %10.3f %10.3f %14zu\n", engines[i].name, st.min,
                st.median, peak[i]);
    json.add({"ablation-fastbcc", g.n, g.m(), ex.threads(),
              std::string(family) + "/" + engines[i].name, {}, st.min,
              st.median,
              {{"peak_workspace_bytes", static_cast<double>(peak[i])}}});
  }

  // Both engines normalize labels by first appearance over the same
  // edge order, so identical partitions mean identical vectors.
  if (labels[0] != labels[1]) {
    std::printf("!! fastbcc and tv-filter labels differ on %s\n", family);
    ok = false;
  }
  if (peak[1] >= peak[0]) {
    std::printf("!! fastbcc peak scratch %zu B is not below tv-filter "
                "%zu B on %s\n",
                peak[1], peak[0], family);
    ok = false;
  }
  if (assert_fastbcc_wins && best[1] >= best[0]) {
    std::printf("!! fastbcc %.4fs is not faster than tv-filter %.4fs on %s "
                "(p = %d)\n",
                best[1], best[0], family, ex.threads());
    ok = false;
  }

  // The dispatcher's own verdict for this cell, read off the rollup
  // span it opened.
  BccContext auto_ctx(ex);
  const BccResult ra = solve(auto_ctx, g, BccAlgorithm::kAuto, opt);
  const char* picked = "?";
  for (const Engine alg :
       {Engine(BccAlgorithm::kSequential), Engine(paper::Algorithm::kTvOpt),
        Engine(paper::Algorithm::kTvFilter), Engine(BccAlgorithm::kFastBcc)}) {
    if (ra.trace.find_path(to_string(alg)) != nullptr) picked = to_string(alg);
  }
  std::printf("    auto pick: %s (expected %s)\n", picked,
              to_string(expected_auto_pick));
  json.add({"ablation-fastbcc", g.n, g.m(), ex.threads(),
            std::string(family) + "/auto", {}, 0.0, 0.0,
            {{"picked_fastbcc",
              ra.trace.find_path("FastBCC") != nullptr ? 1.0 : 0.0}}});
  if (ra.trace.find_path(to_string(expected_auto_pick)) == nullptr) {
    std::printf("!! auto picked %s instead of %s on %s (p = %d)\n", picked,
                to_string(expected_auto_pick), family, ex.threads());
    ok = false;
  }
  std::printf("    fastbcc/tv-filter: %.2fx  (%.0f%% saved)\n\n",
              best[0] > 0 ? best[1] / best[0] : 0.0,
              best[0] > 0 ? 100.0 * (1.0 - best[1] / best[0]) : 0.0);
  return ok;
}

/// Section (g): the batch-dynamic engine against a fresh re-solve on
/// the streaming-churn workload (dynamic_churn.hpp) — the committed
/// BENCH_dynamic.json gate.  Returns false when the configuration's
/// batch-update throughput misses the 10x bar at batch <= 1% of m, or
/// when the engine's labels ever diverge from the fresh-solve oracle.
bool dynamic_section(JsonWriter& json, const char* family, EdgeList g,
                     int p, std::uint64_t seed) {
  constexpr double kMinSpeedup = 10.0;
  const vid n = g.n;
  const eid m = g.m();
  const ChurnOutcome r = run_streaming_churn(std::move(g), p, seed, nullptr);
  bool ok = true;
  if (r.label_fail_round >= 0) {
    std::printf("!! (g) %s p=%d round %d: batch-dynamic labels diverge "
                "from the fresh solve\n",
                family, p, r.label_fail_round);
    ok = false;
  } else if (r.speedup < kMinSpeedup) {
    std::printf("!! (g) %s p=%d: batch-update speedup %.1fx is below the "
                "%.0fx gate (apply %.3f ms, re-solve %.3f ms)\n",
                family, p, r.speedup, kMinSpeedup, r.dyn_mean * 1e3,
                r.ref_mean * 1e3);
    ok = false;
  }
  std::printf("    %-9s p=%-2d  batch %u+%u (%.2f%% of m)  apply %8.3f ms  "
              "re-solve %8.3f ms  %5.1fx  fallbacks %llu\n",
              family, p, r.batch, r.batch,
              m > 0 ? 200.0 * r.batch / static_cast<double>(m) : 0.0,
              r.dyn_mean * 1e3, r.ref_mean * 1e3, r.speedup,
              static_cast<unsigned long long>(r.fallbacks));
  json.add({"ablation-dynamic", n, m, p, std::string("churn:") + family,
            {{"batch_apply", r.dyn_mean},
             {"resolve", r.ref_mean},
             {"speedup", r.speedup}},
            r.dyn_stats.min, r.dyn_stats.median,
            {{"batch_edges", 2.0 * r.batch},
             {"updates_per_s", r.updates_per_s},
             {"region_edges_mean", r.region_mean},
             {"fallbacks", static_cast<double>(r.fallbacks)},
             {"gate_min_speedup", kMinSpeedup}}});
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const vid n = env_n(500000);
  const int p = env_threads();
  const std::uint64_t seed = env_seed();
  const eid m = 8 * static_cast<eid>(n);
  JsonWriter json(argc, argv);
  bool fastbcc_only = false;  // CI smoke: skip (a)-(d), run (e) alone
  bool dynamic_only = false;  // BENCH_dynamic.json gate: run (g) alone
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--fastbcc-only") fastbcc_only = true;
    if (std::string_view(argv[i]) == "--dynamic-only") dynamic_only = true;
  }

  print_header("A1 - rooting and low/high ablation");
  std::printf("n = %u, m = %u, p = %d, reps = %d\n\n", n, m, p, env_reps());

  Executor ex(p);
  Workspace ws;
  bool ok = true;
  if (!fastbcc_only && !dynamic_only) {
  const EdgeList g = gen::random_connected_gnm(n, m, seed);
  const SpanningForest forest = sv_spanning_forest(ex, ws, g.n, g.edges);

  std::printf("(a) rooting the spanning tree\n");
  std::printf("    %-44s %10s %10s\n", "variant", "min(s)", "median(s)");
  for (const ArcSort sort : {ArcSort::kSampleSort, ArcSort::kCountingSort}) {
    for (const ListRanker ranker :
         {ListRanker::kSequential, ListRanker::kWyllie,
          ListRanker::kHelmanJaja}) {
      const RepStats st = timed_reps([&] {
        const RootedSpanningTree tree = root_tree_via_euler_tour(
            ex, ws, g.n, g.edges, forest.tree_edges, 0, ranker, sort);
        (void)tree;
      });
      const char* sort_name =
          sort == ArcSort::kSampleSort ? "sample-sort" : "bucket";
      const char* rank_name = ranker == ListRanker::kSequential ? "sequential"
                              : ranker == ListRanker::kWyllie
                                  ? "Wyllie O(n log n)"
                                  : "Helman-JaJa";
      std::printf("    euler tour (%-11s) + rank %-17s %10.3f %10.3f\n",
                  sort_name, rank_name, st.min, st.median);
      json.add({"ablation-rooting", g.n, g.m(), p,
                std::string("euler-") + sort_name + "+" + rank_name, {},
                st.min, st.median, {}});
    }
  }
  {
    const RepStats conv = timed_reps([&] { (void)Csr::build(ex, ws, g); });
    const Csr csr = Csr::build(ex, ws, g);
    RootedSpanningTree tree;
    tree.root = 0;
    const RepStats pipe = timed_reps([&] {
      const TraversalTree tt = traversal_spanning_tree(ex, csr, 0);
      tree.parent = tt.parent;
      tree.parent_edge = tt.parent_edge;
      const ChildrenCsr sweep_children = build_children(ex, ws, tree.parent, 0);
      const LevelStructure sweep_levels =
          build_levels(ex, sweep_children, 0);
      preorder_and_size(ex, sweep_children, sweep_levels, 0, tree.pre,
                        tree.sub);
    });
    std::printf("    %-44s %10.3f %10.3f  (+%.3f conversion)\n",
                "traversal tree + level sweeps (TV-opt)", pipe.min,
                pipe.median, conv.min);
    json.add({"ablation-rooting", g.n, g.m(), p, "traversal+level-sweeps",
              {{"conversion", conv.min}}, pipe.min, pipe.median, {}});

    std::printf("\n(b) low/high aggregation on the TV-opt tree\n");
    const ChildrenCsr children = build_children(ex, ws, tree.parent, 0);
    const LevelStructure levels = build_levels(ex, children, 0);
    const std::vector<vid> owner = make_tree_owner(ex, g.m(), tree);
    LowHigh rmq, sweep;
    const RepStats rmq_t = timed_reps(
        [&] { rmq = compute_low_high_rmq(ex, ws, g.edges, tree, owner); });
    const RepStats sweep_t = timed_reps([&] {
      sweep = compute_low_high_levels(ex, g.edges, tree, owner, children,
                                      levels);
    });
    std::printf("    %-44s %10.3f %10.3f\n", "sparse-table RMQ (TV-SMP style)",
                rmq_t.min, rmq_t.median);
    std::printf("    %-44s %10.3f %10.3f\n", "level sweeps (TV-opt style)",
                sweep_t.min, sweep_t.median);
    json.add({"ablation-lowhigh", g.n, g.m(), p, "rmq", {}, rmq_t.min,
              rmq_t.median, {}});
    json.add({"ablation-lowhigh", g.n, g.m(), p, "level-sweeps", {},
              sweep_t.min, sweep_t.median, {}});
    if (rmq.low != sweep.low || rmq.high != sweep.high) {
      std::printf("!! low/high variants disagree\n");
      return 1;
    }
  }

  std::printf(
      "\n(c) frontier engines: BFS direction + SV convergence + union-find\n");
  // Low-diameter, above-average density: the hybrid's home turf, so
  // the inspection assertion applies here.
  ok &= frontier_section(ex, json, "random-8n", g, true);
  // High-diameter torus: the hybrid must not misfire (it should stay
  // near top-down), and FastSV's full shortcutting pays off most.
  {
    vid side = 1;
    while ((side + 1) * (side + 1) <= n) ++side;
    if (side < 3) side = 3;
    const EdgeList torus = gen::grid_torus(side, side);
    ok &= frontier_section(ex, json, "torus", torus, false);
  }

  std::printf("(d) aux pipeline: fused hooks vs staged+compacted G'\n");
  {
    // The acceptance table's four cells: {m = 4n, m = 20n} x {p = 1,
    // full width}, all from one run so BENCH_aux.json is self-contained.
    Executor ex1(1);
    const EdgeList g4 =
        gen::random_connected_gnm(n, 4 * static_cast<eid>(n), seed + 1);
    const EdgeList g20 =
        gen::random_connected_gnm(n, 20 * static_cast<eid>(n), seed + 2);
    ok &= aux_fusion_section(ex1, json, "gnm-4n", g4);
    ok &= aux_fusion_section(ex, json, "gnm-4n", g4);
    ok &= aux_fusion_section(ex1, json, "gnm-20n", g20);
    ok &= aux_fusion_section(ex, json, "gnm-20n", g20);
  }
  }  // !fastbcc_only && !dynamic_only

  if (!dynamic_only) {
  std::printf("(e) full-solve engines: FastBCC vs TV-filter, with the "
              "kAuto verdict\n");
  {
    // Same four cells as (d), now end to end through the dispatcher.
    // The hard time bound applies at the dense full-width cell; the
    // peak-scratch and label-equality bounds apply everywhere.  kAuto
    // must pick HT up to its edge cutoff and FastBCC above it.
    Executor ex1(1);
    const EdgeList g4 =
        gen::random_connected_gnm(n, 4 * static_cast<eid>(n), seed + 1);
    const EdgeList g20 =
        gen::random_connected_gnm(n, 20 * static_cast<eid>(n), seed + 2);
    const auto auto_pick = [](const EdgeList& g) {
      return g.m() <= kAutoSequentialMaxEdges ? BccAlgorithm::kSequential
                                              : BccAlgorithm::kFastBcc;
    };
    ok &= fastbcc_section(ex1, json, "gnm-4n", g4, false, auto_pick(g4));
    ok &= fastbcc_section(ex, json, "gnm-4n", g4, false, auto_pick(g4));
    ok &= fastbcc_section(ex1, json, "gnm-20n", g20, false, auto_pick(g20));
    ok &= fastbcc_section(ex, json, "gnm-20n", g20, true, auto_pick(g20));
  }
  }  // !dynamic_only

  if (dynamic_only || !fastbcc_only) {
    std::printf("(g) batch-dynamic engine: apply_batch vs fresh re-solve\n");
    // The acceptance cells are fixed: n = 200k (PARBCC_N still
    // overrides, for smokes), random + power-law at 1.25n edges,
    // p in {1, full width}, batch = 1% of m per round.
    const vid dn = env_n(200000);
    const eid dm = static_cast<eid>(dn) + static_cast<eid>(dn) / 4;
    for (const int dp : {1, p}) {
      ok &= dynamic_section(json, "random",
                            gen::random_connected_gnm(dn, dm, seed), dp,
                            seed);
      ok &= dynamic_section(json, "powerlaw",
                            gen::random_power_law(dn, dm, 2.5, seed), dp,
                            seed);
    }
    std::printf("\n");
  }

  if (!json.flush()) ok = false;
  return ok ? 0 : 1;
}
