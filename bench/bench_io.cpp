// Experiment A8: zero-copy ingestion.  The paper's §1 calls out the
// input-representation conversion cost as "non-negligible"; this bench
// measures how far the .pbg binary format moves it.  For each density
// of the paper's sweep (m/n in {4, 10, 20} at n = PARBCC_N, default
// 200k) it times:
//
//   text-serial   io::read_edge_list of the text file + Csr::build
//   text-par      parallel chunked parse (text_parse.hpp) + Csr::build
//   convert       edgelist2pbg's work: write_pbg (CSR + sort + write)
//   mmap-cold     map + structural validation + parallel prefault
//   mmap-warm     map + structural validation, pages already resident
//   solve         load+solve end to end through both ingestion paths
//
// Hard gates (exit 1 on violation — CI runs this binary):
//   G1  mmap-warm is >= 20x faster than the *fastest* text ingestion
//       (parallel parse + CSR build) on every family
//   G2  the mmap-path solve labels the edges identically to the
//       in-memory solve on every family
//
//   --graph <file.pbg>  additionally measure map + solve on a real
//                       graph produced by tools/fetch_graphs.sh
//                       (reported, not gated — scale varies)
//   --json <path>       machine-readable records (BENCH_io.json)
//   --trace-out <path>  one Chrome segment per family ("io:<mult>n"):
//                       a traced map (io_map / io_prefault spans,
//                       io_mapped_bytes / io_prefault_bytes counters)
//                       plus a solve of the mapped graph —
//                       validate_trace.py checks the io rules against it

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "graph/io.hpp"
#include "graph/io_binary.hpp"
#include "graph/text_parse.hpp"
#include "util/timer.hpp"

#include <fstream>

using namespace parbcc;
using namespace parbcc::bench;

namespace {

int g_failures = 0;

void gate(bool ok, const char* name, const std::string& detail) {
  std::printf("  gate %-4s %s (%s)\n", ok ? "OK" : "FAIL", name,
              detail.c_str());
  if (!ok) ++g_failures;
}

/// Normalize a labeling to first-occurrence order so two labelings of
/// the same partition compare equal element for element.
std::vector<vid> canonical_labels(const std::vector<vid>& labels) {
  std::vector<vid> remap(labels.size(), kNoVertex);
  std::vector<vid> out(labels.size());
  vid next = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (remap[labels[i]] == kNoVertex) remap[labels[i]] = next++;
    out[i] = remap[labels[i]];
  }
  return out;
}

struct SolveSample {
  double seconds = 0;
  std::vector<vid> labels;
};

SolveSample solve_prepared(BccContext& ctx, const EdgeList& g, int p,
                           int reps) {
  BccOptions opt;
  opt.threads = p;
  opt.algorithm = BccAlgorithm::kFastBcc;
  SolveSample out;
  out.seconds = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    const BccResult r = biconnected_components(ctx, g, opt);
    out.seconds = std::min(out.seconds, r.times.total);
    if (rep == 0) out.labels = canonical_labels(r.edge_component);
  }
  return out;
}

void measure_external(const std::string& path, int p, int reps,
                      JsonWriter& json) {
  std::printf("\n--- external graph: %s ---\n", path.c_str());
  Timer map_timer;
  BccContext ctx(p);
  io::MapOptions mopt;
  mopt.prefault = true;
  mopt.executor = &ctx.executor();
  io::map_prepared_graph(ctx, path, mopt);
  const double map_s = map_timer.seconds();
  const EdgeList& g = *ctx.mapped_graph();
  std::printf("  n=%u m=%u map+prefault %.4fs\n", g.n, g.m(), map_s);

  const SolveSample solve = solve_prepared(ctx, g, p, reps);
  std::printf("  solve %.4fs\n", solve.seconds);
  JsonRecord rec;
  rec.bench = "io_external";
  rec.n = g.n;
  rec.m = g.m();
  rec.p = p;
  rec.algorithm = "fast_bcc";
  rec.min = solve.seconds;
  rec.median = solve.seconds;
  rec.extra.push_back({"map_seconds_x1e9", map_s * 1e9});
  json.add(rec);
}

}  // namespace

int main(int argc, char** argv) {
  const vid n = env_n(200000);
  const int p = env_threads();
  const std::uint64_t seed = env_seed();
  const int reps = env_reps(3);
  JsonWriter json(argc, argv);
  TraceOut traces(argc, argv);
  std::vector<std::string> external;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--graph") external.push_back(argv[i + 1]);
  }

  print_header("A8: zero-copy ingestion (text vs .pbg mmap)");
  std::printf("n = %u, p = %d, reps = %d\n", n, p, reps);

  const std::string dir = "/tmp";
  Executor ex(p);
  Workspace ws;

  for (const eid mult : density_multipliers()) {
    const eid m = static_cast<eid>(mult) * n;
    std::printf("\n--- family m = %un (m = %u) ---\n",
                static_cast<unsigned>(mult), m);
    const EdgeList g = gen::random_connected_gnm(n, m, seed);

    const std::string txt = dir + "/bench_io_" + std::to_string(mult) + ".txt";
    const std::string pbg = dir + "/bench_io_" + std::to_string(mult) + ".pbg";
    {
      std::ofstream out(txt);
      io::write_edge_list(out, g);
    }

    // Text ingestion, serial reader (the pre-existing path).
    double text_serial = 1e30;
    for (int rep = 0; rep < reps; ++rep) {
      Timer t;
      std::ifstream in(txt);
      const EdgeList parsed = io::read_edge_list(in);
      const Csr csr = Csr::build(ex, ws, parsed);
      text_serial = std::min(text_serial, t.seconds());
      if (parsed.m() != g.m()) std::abort();
      (void)csr;
    }

    // Text ingestion, parallel chunked parser.
    double text_par = 1e30;
    for (int rep = 0; rep < reps; ++rep) {
      Timer t;
      const EdgeList parsed = io::read_text_graph(ex, txt);
      const Csr csr = Csr::build(ex, ws, parsed);
      text_par = std::min(text_par, t.seconds());
      (void)csr;
    }

    // One-time conversion cost (what fetch_graphs.sh pays per graph).
    Timer conv_timer;
    io::write_pbg(pbg, ex, g);
    const double convert = conv_timer.seconds();

    // Cold-ish map: fresh mapping, parallel prefault touches every
    // page (faults served from page cache — a freshly booted machine
    // would add disk latency on top; the gate uses warm, not this).
    double map_cold = 1e30;
    for (int rep = 0; rep < reps; ++rep) {
      Timer t;
      io::MapOptions mopt;
      mopt.prefault = true;
      mopt.executor = &ex;
      const io::MappedGraph mg = io::MappedGraph::map(pbg, mopt);
      map_cold = std::min(map_cold, t.seconds());
      if (mg.graph().m() != g.m()) std::abort();
    }

    // Warm map: structural validation only, pages resident.
    double map_warm = 1e30;
    for (int rep = 0; rep < reps; ++rep) {
      Timer t;
      const io::MappedGraph mg = io::MappedGraph::map(pbg);
      map_warm = std::min(map_warm, t.seconds());
      (void)mg;
    }

    std::printf("  text-serial %9.4fs   text-par %9.4fs   convert %9.4fs\n",
                text_serial, text_par, convert);
    std::printf("  mmap-cold   %9.6fs   mmap-warm %8.6fs\n", map_cold,
                map_warm);

    // End-to-end solves: in-memory graph vs adopted mapping.
    BccContext mem_ctx(p);
    const SolveSample in_memory = solve_prepared(mem_ctx, g, p, reps);
    BccContext map_ctx(p);
    io::MapOptions mopt;
    mopt.prefault = true;
    mopt.executor = &map_ctx.executor();
    io::map_prepared_graph(map_ctx, pbg, mopt);
    const SolveSample via_map =
        solve_prepared(map_ctx, *map_ctx.mapped_graph(), p, reps);
    std::printf("  solve in-memory %7.4fs   via-map %7.4fs\n",
                in_memory.seconds, via_map.seconds);

    // G1: warm map load vs fastest text ingestion.
    const double text_best = std::min(text_serial, text_par);
    char detail[160];
    std::snprintf(detail, sizeof(detail), "%.4fs text vs %.6fs warm = %.0fx",
                  text_best, map_warm, text_best / map_warm);
    gate(text_best >= 20.0 * map_warm, "G1", detail);

    // G2: identical labels through the mapped path.
    gate(via_map.labels == in_memory.labels, "G2",
         "mmap labels == in-memory labels");

    JsonRecord rec;
    rec.bench = "io";
    rec.n = n;
    rec.m = m;
    rec.p = p;
    rec.algorithm = "fast_bcc";
    rec.phase_times = {{"text_serial", text_serial},
                       {"text_parallel", text_par},
                       {"convert", convert},
                       {"map_cold", map_cold},
                       {"map_warm", map_warm},
                       {"solve_in_memory", in_memory.seconds},
                       {"solve_via_map", via_map.seconds}};
    rec.min = via_map.seconds;
    rec.median = via_map.seconds;
    rec.extra.push_back({"warm_speedup_x100",
                         100.0 * std::min(text_serial, text_par) / map_warm});
    json.add(rec);

    if (traces.enabled()) {
      Trace tr;
      BccContext tctx(p);
      io::MapOptions tmopt;
      tmopt.prefault = true;
      tmopt.executor = &tctx.executor();
      tmopt.trace = &tr;
      io::map_prepared_graph(tctx, pbg, tmopt);
      BccOptions topt;
      topt.threads = p;
      topt.algorithm = BccAlgorithm::kFastBcc;
      topt.trace = &tr;
      biconnected_components(tctx, *tctx.mapped_graph(), topt);
      traces.add("io:" + std::to_string(mult) + "n", tr);
    }

    std::remove(txt.c_str());
    std::remove(pbg.c_str());
  }

  for (const std::string& path : external) {
    measure_external(path, p, reps, json);
  }

  if (g_failures > 0) {
    std::printf("\n%d gate(s) FAILED\n", g_failures);
    return 1;
  }
  std::printf("\nall gates passed\n");
  return 0;
}
