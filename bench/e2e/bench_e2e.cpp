// bench_e2e: one benchmark for the path a deployment runs — a graph file,
// to BCC labels, to answered queries — plus a per-layer trace.
//
//   bench_e2e [--workload NAME]... [--seed S] [--seconds T] [--scale F]
//             [--out run.json] [--trace-out trace.json] [--work-dir DIR]
//
// Workloads (README.md says why each exists; sizes at --scale 1):
//   gnm20-pbg      random_connected_gnm n = 200k, m = 20n, mapped .pbg
//   torus-pbg      grid_torus 700 x 700 (diameter ~700), mapped .pbg
//   powerlaw-text  random_power_law n = 150k, m = 8n, SNAP text parsed
//                  at every set-up
//   serve-read     monitor graph n = 100k, m = 1.25n, behind BccServer;
//                  3 closed-loop readers
//   serve-churn    the same service at p = 2; open-loop readers and
//                  mutations
//
// The program is driven only through its public entry points: the .pbg
// mapper and the text parser, BccContext, biconnected_components,
// BatchDynamicBcc, server::Snapshot, BccService, BccServer and BccClient.
// Inputs come from the seed.  Every workload reports every end-to-end
// metric of report.hpp from untraced passes; --trace-out adds one traced
// pass per workload for the per-layer metrics and a Chrome trace.  Every
// output is checked; a wrong answer is a failed operation, and any failure
// makes the exit status 1.  The last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}, with the per-layer
// metrics when --trace-out is given and the end-to-end ones otherwise.

#include <sys/prctl.h>

#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "churn_stream.hpp"
#include "connectivity/shiloach_vishkin.hpp"
#include "core/batch_dynamic.hpp"
#include "core/bcc.hpp"
#include "core/bcc_context.hpp"
#include "core/validate.hpp"
#include "graph/generators.hpp"
#include "graph/io_binary.hpp"
#include "graph/text_parse.hpp"
#include "report.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "server/service.hpp"
#include "server/snapshot.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

#ifndef E2E_COMPILER
#define E2E_COMPILER "unknown"
#endif
#ifndef E2E_FLAGS
#define E2E_FLAGS "unknown"
#endif
#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace parbcc::e2e {
namespace {

using Clock = std::chrono::steady_clock;
using server::BccClient;
using server::BccServer;
using server::BccService;
using server::Query;
using server::QueryReply;
using server::Snapshot;

/// Solver width p: the reference host has four cores.
constexpr int kThreads = 4;
constexpr int kQueryBatch = 64;
/// serve-read connections, and the in-process readers of the other
/// workloads (the same read path without the socket).
constexpr int kReaders = 3;
constexpr int kChurnReaders = 2;
constexpr double kChurnQueryRate = 5000;  // batches/s per reader connection
constexpr double kMutationRate = 10;      // batches/s
constexpr int kRetainEvery = 64;          // serve-read replies re-checked
/// serve-churn's service (batch apply and publish) runs on the cores its
/// reader connections leave, so the window never has more runnable
/// threads than the host has cores and the query tail measures the
/// program rather than the scheduler.
constexpr int kChurnWriterThreads = kThreads - kChurnReaders;
/// Serving rounds are few (each builds a service), so each takes several
/// solve samples of the served graph.
constexpr int kSolvesPerServeRound = 2;
/// validate_bcc runs where it is affordable; past this many edges its
/// exact per-block check takes minutes, and agreement with the sequential
/// Hopcroft-Tarjan engine is the oracle that remains.
constexpr eid kCertificateMaxEdges = 1500000;
constexpr double kBalanceTolerance = 0.02;

enum class Kind { kStatic, kServeRead, kServeChurn };

struct Workload {
  const char* name;
  const char* span;  // root span of the traced pass
  Kind kind;
  bool text;  // SNAP text instead of .pbg
};

constexpr Workload kWorkloads[] = {
    {"gnm20-pbg", "e2e:gnm20-pbg", Kind::kStatic, false},
    {"torus-pbg", "e2e:torus-pbg", Kind::kStatic, false},
    {"powerlaw-text", "e2e:powerlaw-text", Kind::kStatic, true},
    {"serve-read", "e2e:serve-read", Kind::kServeRead, false},
    {"serve-churn", "e2e:serve-churn", Kind::kServeChurn, false},
};

struct Config {
  std::vector<const Workload*> workloads;
  std::uint64_t seed = 1;
  double seconds = 20;
  double scale = 1;
  std::string out;
  std::string trace_out;
  std::string work_dir = ".bench_build/e2e-work";
  bool traced() const { return !trace_out.empty(); }
};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// Run `body(rep)` at least `min_reps` times, then while one more
/// repetition of average length still fits in `seconds`.
template <class Body>
void repeat(double seconds, int min_reps, Body&& body) {
  Timer timer;
  for (int rep = 0;; ++rep) {
    const double spent = timer.seconds();
    if (rep >= min_reps && spent + spent / rep > seconds) break;
    body(rep);
  }
}

// ---- inputs ----

vid scaled(double base, double scale) {
  return static_cast<vid>(std::max(16.0, std::round(base * scale)));
}

EdgeList make_graph(const Workload& w, const Config& cfg, std::string* family) {
  const std::string name = w.name;
  if (name == "gnm20-pbg") {
    const vid n = scaled(200000, cfg.scale);
    *family = "random_connected_gnm m=20n";
    return gen::random_connected_gnm(n, 20 * static_cast<eid>(n), cfg.seed);
  }
  if (name == "torus-pbg") {
    // The torus has no randomness of its own; the seed orders the edges.
    const vid side = scaled(700, std::sqrt(cfg.scale));
    *family = "grid_torus " + std::to_string(side) + "x" + std::to_string(side);
    EdgeList g = gen::grid_torus(side, side);
    std::mt19937_64 rng(cfg.seed);
    std::shuffle(g.edges.begin(), g.edges.end(), rng);
    return g;
  }
  if (name == "powerlaw-text") {
    const vid n = scaled(150000, cfg.scale);
    *family = "random_power_law m=8n alpha=2.1";
    return gen::random_power_law(n, 8 * static_cast<eid>(n), 2.1, cfg.seed);
  }
  // The monitor graph of the serving workloads: m = 1.25n leaves many
  // small blocks and pendant bridges for the churn stream to flap.
  const vid n = scaled(100000, cfg.scale);
  *family = "random_connected_gnm m=1.25n";
  return gen::random_connected_gnm(n, static_cast<eid>(n) + n / 4, cfg.seed);
}

void write_snap(const std::string& path, const EdgeList& g) {
  std::string text = "# Undirected graph\n# Nodes: " + std::to_string(g.n) +
                     " Edges: " + std::to_string(g.m()) + "\n";
  text.reserve(text.size() + 16 * static_cast<std::size_t>(g.m()));
  char buf[32];  // two 10-digit ids, a tab and a newline
  for (const Edge& e : g.edges) {
    char* const u_end = std::to_chars(buf, buf + 12, e.u).ptr;
    *u_end = '\t';
    char* const v_end = std::to_chars(u_end + 1, u_end + 13, e.v).ptr;
    *v_end = '\n';
    text.append(buf, v_end + 1);
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  const bool ok = f != nullptr &&
                  std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (f != nullptr && std::fclose(f) != 0) throw std::runtime_error("close " + path);
  if (!ok) throw std::runtime_error("cannot write " + path);
}

/// A loaded input: its context owns the mapping of a .pbg, and `parsed`
/// holds a text input's edge list.
struct Loaded {
  std::unique_ptr<BccContext> ctx;
  EdgeList parsed;
  bool text = false;
  const EdgeList& graph() const { return text ? parsed : *ctx->mapped_graph(); }
};

std::unique_ptr<Loaded> load(const std::string& path, bool text, int threads,
                             Trace* trace) {
  auto out = std::make_unique<Loaded>();
  out->ctx = std::make_unique<BccContext>(threads);
  out->text = text;
  if (text) {
    out->parsed = io::read_text_graph(out->ctx->executor(), path,
                                      io::TextFormat::kSnap);
  } else {
    io::MapOptions opt;
    opt.trace = trace;
    io::map_prepared_graph(*out->ctx, path, opt);
  }
  return out;
}

BccResult solve(BccContext& ctx, const EdgeList& g,
                BccAlgorithm algorithm = BccAlgorithm::kAuto,
                Trace* trace = nullptr) {
  BccOptions opt;
  opt.algorithm = algorithm;
  opt.threads = ctx.executor().threads();
  opt.trace = trace;
  return biconnected_components(ctx, g, opt);
}

/// Same block partition (labels compared after first-appearance
/// normalization) and the same cut vertices and bridges.
bool same_blocks(const BccResult& a, const BccResult& b) {
  if (a.num_components != b.num_components ||
      a.is_articulation != b.is_articulation || a.bridges != b.bridges) {
    return false;
  }
  std::vector<vid> la = a.edge_component;
  std::vector<vid> lb = b.edge_component;
  normalize_labels(la);
  normalize_labels(lb);
  return la == lb;
}

/// The engine kAuto ran: the solve's top-level span other than dispatch.
std::string engine_of(const BccResult& r) {
  for (const TracePhase& p : r.trace.phases) {
    if (p.depth == 0 && p.name != "dispatch") return p.name;
  }
  return "unknown";
}

std::uint64_t working_set(std::uint64_t n, std::uint64_t m,
                          std::size_t arena) {
  // Edge list (8m), CSR offsets (4n), targets and edge ids (16m), arena.
  return 24 * m + 4 * (n + 1) + arena;
}

constexpr double kMiB = 1024.0 * 1024.0;

// ---- queries ----

/// One query of the uniform five-op mix over ids in range.
Query random_query(std::mt19937_64& rng, vid n, eid m) {
  Query q;
  q.op = static_cast<server::Op>(1 + rng() % 5);
  if (q.op == server::Op::kBlockId) {
    q.a = static_cast<std::uint32_t>(rng() % std::max<eid>(m, 1));
  } else {
    q.a = static_cast<std::uint32_t>(rng() % n);
    q.b = static_cast<std::uint32_t>(rng() % n);
  }
  return q;
}

void fill_batch(std::vector<Query>& batch, std::mt19937_64& rng, vid n, eid m) {
  batch.resize(kQueryBatch);
  for (Query& q : batch) q = random_query(rng, n, m);
}

bool answers_match(const Snapshot& snap, const std::vector<Query>& batch,
                   const QueryReply& reply) {
  if (reply.version != snap.version() ||
      reply.results.size() != batch.size()) {
    return false;
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (reply.results[i] != server::evaluate_query(snap, batch[i])) return false;
  }
  return true;
}

/// Per-batch latencies of a query run plus its totals.
struct QueryRun {
  std::vector<double> latency_s;
  std::uint64_t queries = 0;
  double elapsed_s = 0;
  std::uint64_t errors = 0;
  double qps() const { return elapsed_s > 0 ? queries / elapsed_s : 0; }
};

void merge(QueryRun& into, const QueryRun& part) {
  into.latency_s.insert(into.latency_s.end(), part.latency_s.begin(),
                        part.latency_s.end());
  into.queries += part.queries;
  into.errors += part.errors;
}

std::atomic<std::uint32_t> g_sink{0};

/// kReaders in-process threads answering 64-query batches against `snap`
/// in a closed loop for `seconds`.
QueryRun query_in_process(const Snapshot& snap, double seconds,
                          std::uint64_t seed) {
  std::vector<QueryRun> parts(kReaders);
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = start + to_duration(seconds);
  {
    std::vector<std::jthread> readers;
    for (int t = 0; t < kReaders; ++t) {
      readers.emplace_back([&, t] {
        std::mt19937_64 rng(seed * 1000003 + t);
        std::vector<Query> batch;
        std::uint32_t sink = 0;
        while (Clock::now() < end) {
          fill_batch(batch, rng, snap.n(), snap.m());
          const Clock::time_point t0 = Clock::now();
          for (const Query& q : batch) sink ^= server::evaluate_query(snap, q);
          parts[t].latency_s.push_back(seconds_between(t0, Clock::now()));
          parts[t].queries += batch.size();
        }
        g_sink.fetch_xor(sink, std::memory_order_relaxed);
      });
    }
  }
  QueryRun run;
  run.elapsed_s = seconds_between(start, Clock::now());
  for (const QueryRun& p : parts) merge(run, p);
  return run;
}

// ---- the traced pass's layer rollup ----

/// Layer of a span by name: the src/ module that owns the work.  Spans
/// not listed belong to their parent's layer; the benchmark's root span
/// is the glue between calls and counts as unattributed.
const char* layer_of_span(std::string_view name) {
  static constexpr std::pair<std::string_view, const char*> kLayers[] = {
      {"load", "graph"},          {"prepare", "graph"},
      {"io_map", "graph"},        {"io_prefault", "graph"},
      {"solve", "core"},          {"dynamic_init", "core"},
      {"batch_apply", "core"},    {"snapshot_build", "server"},
      {"service_init", "server"}, {"serve", "server"},
      {"publish", "server"},      {"queries", "server"},
      {"spanning_tree", "spanning"},
      {"euler_tour", "eulertour"}, {"root_tree", "eulertour"},
      {"list_ranking", "listrank"},
      {"connected_components", "connectivity"},
  };
  for (const auto& [span, layer] : kLayers) {
    if (span == name) return layer;
  }
  return nullptr;
}

/// Self seconds per layer: each phase's measured exclusive time (charged
/// seconds were spent outside the trace's wall clock and are left out).
void layer_rollup(const TraceReport& report, double wall_s, Result& r) {
  std::map<std::string, std::string> layer_by_path;
  std::map<std::string, double> self;
  for (const TracePhase& p : report.phases) {  // preorder: parents first
    std::string layer = "unattributed";
    if (p.depth > 0) {
      if (const char* l = layer_of_span(p.name)) {
        layer = l;
      } else {
        layer = layer_by_path[p.path.substr(0, p.path.rfind('/'))];
      }
    }
    layer_by_path[p.path] = layer;
    self[layer] += p.exclusive_seconds - p.charged_seconds;
  }
  r.rollup.assign(self.begin(), self.end());
  r.rollup_wall_s = wall_s;
  double sum = 0;
  for (const auto& [layer, s] : self) sum += s;
  r.check(std::abs(sum - wall_s) <= kBalanceTolerance * wall_s,
          "layer self times sum to within 2% of the traced wall time");
}

/// Per-layer metrics read from one traced warm p=4 solve.
void solve_layers(const BccResult& warm, double untraced_solve_s, Result& r) {
  const TraceReport& t = warm.trace;
  r.layer("core.dispatch_s", t.inclusive_seconds("dispatch"));
  r.layer("core.step.spanning_tree_s", warm.times.spanning_tree);
  r.layer("core.step.euler_tour_s", warm.times.euler_tour);
  r.layer("core.step.root_tree_s", warm.times.root_tree);
  r.layer("core.step.low_high_s", warm.times.low_high);
  r.layer("core.step.label_edge_s", warm.times.label_edge);
  r.layer("core.step.connected_components_s", warm.times.connected_components);
  r.layer("core.step.filtering_s", warm.times.filtering);
  r.layer("core.step.unattributed_s", warm.times.unattributed);
  r.layer("spanning.bfs_rounds", t.counter_total("bfs_top_down_rounds") +
                                     t.counter_total("bfs_bottom_up_rounds"));
  r.layer("spanning.bfs_inspected_edges", t.counter_total("bfs_inspected_edges"));
  r.layer("connectivity.sv_rounds", t.counter_total("sv_rounds"));
  r.layer("util.sched_steals", t.counter_total("sched_steals"));
  r.layer("core.arena_peak_mib", warm.peak_workspace_bytes / kMiB);
  r.layer("core.arena_reuse_hits", static_cast<double>(warm.arena_reuse_hits));
  r.layer("trace.overhead_frac",
          untraced_solve_s > 0 ? warm.times.total / untraced_solve_s - 1 : 0);
}

/// Set every per-layer metric a workload did not produce to 0.
void zero_missing_layers(Result& r) {
  for (const MetricDef& d : kPerLayer) {
    if (r.layers.find(d.name) == r.layers.end()) r.layer(d.name, 0);
  }
}

void add_segment(std::vector<TraceSegment>& segments, const Workload& w,
                 const Trace& tr) {
  TraceSegment seg;
  seg.label = w.span;
  seg.events = tr.events();
  seg.report = tr.report();
  segments.push_back(std::move(seg));
}

// ---- static workloads: file -> labels -> in-process queries ----

/// Traced pass of a static workload: the untraced sequence once more with
/// spans around each public call.
void trace_static(const Workload& w, const std::string& path,
                  double untraced_solve_s, const Config& cfg, Result& r,
                  std::vector<TraceSegment>& segments) {
  Trace tr(kThreads);
  Timer wall;
  {
    TraceSpan root(tr, w.span);
    Timer t;
    std::unique_ptr<Loaded> live;
    {
      TraceSpan span(tr, "load");
      live = load(path, w.text, kThreads, &tr);
    }
    const double load_s = t.lap();
    const EdgeList& g = live->graph();
    {
      TraceSpan span(tr, "prepare");
      live->ctx->prepare(g);
    }
    r.layer("graph.prepare_s", t.lap());
    r.layer("graph.load_s", load_s);
    r.layer("graph.parse_mb_per_s", w.text ? r.file_bytes / 1e6 / load_s : 0);
    {
      TraceSpan span(tr, "solve");
      r.check(solve(*live->ctx, g, BccAlgorithm::kAuto, &tr).num_components > 0,
              "traced first solve");
    }
    BccResult warm;
    {
      TraceSpan span(tr, "solve");
      warm = solve(*live->ctx, g, BccAlgorithm::kAuto, &tr);
    }
    solve_layers(warm, untraced_solve_s, r);
    t.reset();
    std::unique_ptr<Snapshot> snap;
    {
      TraceSpan span(tr, "snapshot_build");
      snap = std::make_unique<Snapshot>(live->ctx->executor(), g, warm, 1);
    }
    r.layer("server.snapshot_build_s", t.lap());
    r.layer("server.snapshot_mib", snap->memory_bytes() / kMiB);
    QueryRun q;
    {
      TraceSpan span(tr, "queries");
      q = query_in_process(*snap, std::min(1.0, 0.05 * cfg.seconds), cfg.seed);
    }
    r.layer("server.eval_ns_per_query", median(q.latency_s) * 1e9 / kQueryBatch);
  }
  layer_rollup(tr.report(), wall.seconds(), r);
  add_segment(segments, w, tr);
}

void run_static(const Workload& w, const Config& cfg, Result& r,
                std::vector<TraceSegment>& segments) {
  const std::string path =
      cfg.work_dir + "/" + w.name + (w.text ? ".txt" : ".pbg");
  r.format = w.text ? "snap-text" : "pbg";
  {
    EdgeList g = make_graph(w, cfg, &r.family);
    r.n = g.n;
    r.m = g.m();
    if (w.text) {
      write_snap(path, g);
    } else {
      Executor ex(kThreads);
      io::write_pbg(path, ex, g, {.include_compressed = false});
    }
  }
  r.file_bytes = std::filesystem::file_size(path);
  const double T = cfg.seconds;

  // The p=1 side has its own loaded copy, warmed by an untimed first
  // solve that is also the p=1 half of the label-equality oracle.
  const std::unique_ptr<Loaded> p1 = load(path, w.text, 1, nullptr);
  const BccResult p1_first = solve(*p1->ctx, p1->graph());

  // Rounds, each taking one value of every metric; a metric is the
  // median of its round values (see kEndToEnd).  A round:
  //  - a fresh context: set-up (context + map or parse), then the first
  //    solve (time to labels);
  //  - a warm p=4 re-solve, published as a new Snapshot (without a
  //    mutation stream, a full refresh is how a change becomes visible);
  //  - the same re-solve at p=1;
  //  - a slice of in-process query batches against the snapshot.
  std::vector<double> setup, labels, solve_s, snapshot_s, visible_s, p1_s;
  std::vector<double> qps, q50, q90, q99;
  std::uint64_t query_batches = 0;
  std::unique_ptr<Loaded> live;
  std::shared_ptr<const Snapshot> snap;
  BccResult first;
  std::size_t arena = 0;
  const double slice = 0.01 * T;
  repeat(0.9 * T, 5, [&](int rep) {
    Timer t;
    std::unique_ptr<Loaded> next = load(path, w.text, kThreads, nullptr);
    setup.push_back(t.seconds());
    BccResult res = solve(*next->ctx, next->graph());
    labels.push_back(t.seconds());
    r.check(res.num_components == p1_first.num_components,
            "first solve finds the p=1 block count");
    if (rep == 0) first = std::move(res);
    live = std::move(next);

    const EdgeList& g = live->graph();
    t.reset();
    const BccResult warm = solve(*live->ctx, g);
    const double s = t.lap();
    auto published =
        std::make_shared<const Snapshot>(live->ctx->executor(), g, warm, rep);
    const double b = t.seconds();
    solve_s.push_back(s);
    snapshot_s.push_back(b);
    visible_s.push_back(s + b);
    arena = std::max(arena, warm.peak_workspace_bytes);
    r.check(warm.num_components == p1_first.num_components,
            "warm re-solve finds the p=1 block count");
    r.check(published->num_blocks() == p1_first.num_components,
            "snapshot holds every block");
    snap = std::move(published);

    t.reset();
    const BccResult res1 = solve(*p1->ctx, p1->graph());
    p1_s.push_back(t.seconds());
    r.check(res1.num_components == p1_first.num_components,
            "p=1 re-solve finds the p=1 block count");

    const QueryRun q = query_in_process(*snap, slice, cfg.seed + rep);
    qps.push_back(q.qps());
    q50.push_back(quantile(q.latency_s, 0.5));
    q90.push_back(quantile(q.latency_s, 0.9));
    q99.push_back(quantile(q.latency_s, 0.99));
    query_batches += q.latency_s.size();
  });
  r.count(query_batches, 0, "in-process query batches");
  const EdgeList& g = live->graph();
  r.n = g.n;
  r.m = g.m();
  r.engine = engine_of(first);

  // Oracles on the first solve.
  r.check(same_blocks(first, p1_first), "p=1 and p=4 labels agree");
  Timer ht_timer;
  const BccResult ht = solve(*p1->ctx, p1->graph(), BccAlgorithm::kSequential);
  r.phases["sequential_s"] = ht_timer.seconds();
  r.check(same_blocks(first, ht), "first solve agrees with Hopcroft-Tarjan");
  if (g.m() <= kCertificateMaxEdges) {
    const ValidationReport cert = validate_bcc(live->ctx->executor(), g, first);
    r.check(cert.ok, "validate_bcc: " + cert.message);
  }

  r.metric("setup_s", setup);
  r.metric("time_to_labels_s", labels);
  r.metric("solve_s", solve_s);
  r.metric("arena_peak_mib", arena / kMiB, solve_s.size());
  r.metric("snapshot_mib", snap->memory_bytes() / kMiB, snapshot_s.size());
  r.metric("query_qps", qps);
  r.metric("query_p50_us", q50, 1e6);
  r.phases["query_p90_s"] = median(q90);
  r.phases["query_p99_s"] = median(q99);
  r.metric("visible_p50_ms", visible_s, 1e3);
  r.phases["solve_p1_s"] = median(p1_s);
  r.counters["query_batches"] = static_cast<double>(query_batches);
  std::vector<double> first_solve;
  for (std::size_t i = 0; i < setup.size(); ++i) {
    first_solve.push_back(labels[i] - setup[i]);
  }
  r.phases["load_s"] = median(setup);
  r.phases["first_solve_s"] = median(first_solve);
  r.phases["snapshot_build_s"] = median(snapshot_s);
  for (const char* c : {"bfs_inspected_edges", "bfs_top_down_rounds",
                        "bfs_bottom_up_rounds", "sv_rounds", "sched_steals",
                        "dispatch_unique_edges"}) {
    r.counters[c] = first.trace.counter_total(c);
  }
  r.counters["blocks"] = first.num_components;
  r.working_set_bytes = working_set(r.n, r.m, arena);

  if (cfg.traced()) {
    trace_static(w, path, median(solve_s), cfg, r, segments);
  }
  std::filesystem::remove(path);
}

// ---- serving workloads: file -> BccService -> BccServer -> TCP ----

constexpr const char* kHost = "127.0.0.1";

/// One load-generator connection's log.
struct ReaderLog {
  QueryRun run;
  std::vector<double> late_s;  // open loop: send time minus due time
  /// Open loop: (arrival, seconds from the window start; epoch answered).
  std::vector<std::pair<double, std::uint64_t>> replies;
  /// Closed loop: 1 in kRetainEvery batches, re-checked after the window.
  std::vector<std::pair<std::vector<Query>, QueryReply>> retained;
};

struct MutationLog {
  std::vector<double> due_s;  // from the window start
  std::vector<std::uint64_t> version;
  std::vector<double> rtt_s;
};

/// kReaders closed-loop connections: each sends its next batch when the
/// previous reply arrives.
std::vector<ReaderLog> closed_loop(std::uint16_t port, vid n, eid m,
                                   double seconds, std::uint64_t seed) {
  std::vector<ReaderLog> logs(kReaders);
  const Clock::time_point end = Clock::now() + to_duration(seconds);
  {
    std::vector<std::jthread> readers;
    for (int t = 0; t < kReaders; ++t) {
      readers.emplace_back([&, t] {
        ReaderLog& log = logs[t];
        try {
          BccClient client(kHost, port);
          std::mt19937_64 rng(seed * 7919 + t);
          std::vector<Query> batch;
          for (std::uint64_t k = 0; Clock::now() < end; ++k) {
            fill_batch(batch, rng, n, m);
            const Clock::time_point t0 = Clock::now();
            QueryReply reply = client.query(batch);
            log.run.latency_s.push_back(seconds_between(t0, Clock::now()));
            log.run.queries += batch.size();
            if (reply.results.size() != batch.size()) ++log.run.errors;
            if (k % kRetainEvery == 0) {
              log.retained.emplace_back(batch, std::move(reply));
            }
          }
        } catch (const std::exception&) {
          ++log.run.errors;
        }
      });
    }
  }
  return logs;
}

/// One open-loop reader: a batch is due every 1/kChurnQueryRate seconds
/// whether or not the previous reply has arrived, and latency counts from
/// the due time, so a stall also delays the batches queued behind it.
void open_loop_reader(std::uint16_t port, vid n, eid m,
                      Clock::time_point start, Clock::time_point end,
                      std::uint64_t seed, ReaderLog& log) {
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  try {
    BccClient client(kHost, port);
    std::mt19937_64 rng(seed);
    std::vector<Query> batch;
    const Clock::duration period = to_duration(1.0 / kChurnQueryRate);
    for (Clock::rep k = 0;; ++k) {
      const Clock::time_point due = start + k * period;
      if (due >= end) break;
      fill_batch(batch, rng, n, m);
      std::this_thread::sleep_until(due);
      const Clock::time_point sent = Clock::now();
      const QueryReply reply = client.query(batch);
      const Clock::time_point arrived = Clock::now();
      log.late_s.push_back(seconds_between(due, sent));
      log.run.latency_s.push_back(seconds_between(due, arrived));
      log.run.queries += batch.size();
      log.replies.push_back({seconds_between(start, arrived), reply.version});
      if (reply.results.size() != batch.size()) ++log.run.errors;
    }
  } catch (const std::exception&) {
    ++log.run.errors;
  }
}

/// Mutation batches an open-loop window of `seconds` applies: the last
/// one is due at least a period before the window closes, so readers can
/// observe its epoch inside the window.
std::size_t batches_in(double seconds) {
  return static_cast<std::size_t>(
      std::max(1.0, std::floor(seconds * kMutationRate) - 1));
}

/// serve-churn's window: kChurnReaders open-loop readers over TCP while
/// the calling thread calls `apply(i, due_s)` for mutation batches
/// 0..batches-1 at their due times, kMutationRate per second from the
/// window start (`due_s` counts from there).
template <class Apply>
std::vector<ReaderLog> churn_window(std::uint16_t port, vid n, eid m,
                                    double seconds, std::uint64_t seed,
                                    std::size_t batches, Apply&& apply) {
  std::vector<ReaderLog> logs(kChurnReaders);
  // A short lead lets every connection open before the first due time.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(50);
  const Clock::time_point end = start + to_duration(seconds);
  {
    std::vector<std::jthread> readers;
    for (int t = 0; t < kChurnReaders; ++t) {
      readers.emplace_back(open_loop_reader, port, n, m, start, end,
                           seed * 7919 + t, std::ref(logs[t]));
    }
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    for (std::size_t i = 0; i < batches; ++i) {
      const double due_s = static_cast<double>(i) / kMutationRate;
      std::this_thread::sleep_until(start + to_duration(due_s));
      apply(i, due_s);
    }
  }
  return logs;
}

/// Seconds from each mutation's due time until the first reader reply
/// carrying its epoch (or a later one) arrived.  Epochs only grow along
/// one connection, so each reader's replies are searched by bisection.
std::vector<double> visible_latencies(const std::vector<ReaderLog>& readers,
                                      const MutationLog& muts, Result& r) {
  std::vector<double> out;
  for (std::size_t i = 0; i < muts.version.size(); ++i) {
    double first = std::numeric_limits<double>::infinity();
    for (const ReaderLog& log : readers) {
      const auto it = std::partition_point(
          log.replies.begin(), log.replies.end(),
          [&](const auto& reply) { return reply.second < muts.version[i]; });
      if (it != log.replies.end()) first = std::min(first, it->first);
    }
    r.check(std::isfinite(first), "a published epoch reaches a reader");
    if (std::isfinite(first)) out.push_back(first - muts.due_s[i]);
  }
  return out;
}

QueryRun merged(const std::vector<ReaderLog>& logs) {
  QueryRun run;
  for (const ReaderLog& log : logs) merge(run, log.run);
  return run;
}

/// Seconds from an open-loop window's start to its last reply.
double last_arrival(const std::vector<ReaderLog>& logs) {
  double last = 0;
  for (const ReaderLog& log : logs) {
    if (!log.replies.empty()) last = std::max(last, log.replies.back().first);
  }
  return last;
}

std::vector<double> lateness(const std::vector<ReaderLog>& logs) {
  std::vector<double> out;
  for (const ReaderLog& log : logs) {
    out.insert(out.end(), log.late_s.begin(), log.late_s.end());
  }
  return out;
}

/// The served epoch equals a snapshot of a fresh static solve: block and
/// cut counts, the block_id partition and every is_cut bit.
bool epoch_matches(const Snapshot& live, const Snapshot& fresh) {
  if (live.num_blocks() != fresh.num_blocks() ||
      live.num_cut_vertices() != fresh.num_cut_vertices() ||
      live.m() != fresh.m() || live.n() != fresh.n()) {
    return false;
  }
  for (eid e = 0; e < live.m(); ++e) {
    if (live.block_id(e) != fresh.block_id(e)) return false;
  }
  for (vid v = 0; v < live.n(); ++v) {
    if (live.is_cut(v) != fresh.is_cut(v)) return false;
  }
  return true;
}

/// Everything one serving set-up owns; members tear down in reverse
/// order (server, then service, then the context holding the mapping).
struct Serving {
  std::unique_ptr<BccContext> ctx;
  std::unique_ptr<BccService> svc;
  std::unique_ptr<BccServer> srv;
};

void trace_serve(const Workload& w, const std::string& path,
                 const std::vector<MutationBatch>& stream,
                 double untraced_solve_s, const Config& cfg, Result& r,
                 std::vector<TraceSegment>& segments) {
  const bool churn = w.kind == Kind::kServeChurn;
  const double slice = std::min(2.0, 0.15 * cfg.seconds);
  Trace tr(kThreads);
  Timer wall;
  {
    TraceSpan root(tr, w.span);
    Timer t;
    Serving s;
    s.ctx = std::make_unique<BccContext>(churn ? kChurnWriterThreads : kThreads);
    {
      TraceSpan span(tr, "load");
      io::MapOptions opt;
      opt.trace = &tr;
      io::map_prepared_graph(*s.ctx, path, opt);
    }
    r.layer("graph.load_s", t.lap());
    const EdgeList& g = *s.ctx->mapped_graph();
    BatchDynamicOptions dopt;
    dopt.trace = &tr;
    {
      // The engine's constructor and the first snapshot, timed apart.
      std::unique_ptr<BatchDynamicBcc> dyn;
      {
        TraceSpan span(tr, "dynamic_init");
        dyn = std::make_unique<BatchDynamicBcc>(*s.ctx, g, dopt);
      }
      r.layer("core.dynamic.init_s", t.lap());
      std::unique_ptr<Snapshot> snap;
      {
        TraceSpan span(tr, "snapshot_build");
        snap = std::make_unique<Snapshot>(s.ctx->executor(), dyn->graph(),
                                          dyn->result(), 0);
      }
      r.layer("server.snapshot_build_s", t.lap());
      r.layer("server.snapshot_mib", snap->memory_bytes() / kMiB);
    }
    {
      TraceSpan span(tr, "service_init");
      s.svc = std::make_unique<BccService>(*s.ctx, g, dopt);
      s.srv = std::make_unique<BccServer>(*s.svc);
    }
    std::vector<ReaderLog> readers;
    std::vector<double> apply_s, publish_s, region;
    const std::uint64_t fallbacks_before = s.svc->engine().fallbacks();
    {
      TraceSpan span(tr, "serve");
      if (!churn) {
        readers = closed_loop(s.srv->port(), g.n, g.m(), slice, cfg.seed + 1);
      } else {
        // Mutations go in-process from this thread, so their spans land
        // in the trace; the readers still come over TCP.
        readers = churn_window(
            s.srv->port(), g.n, g.m(), slice, cfg.seed + 1,
            std::min(stream.size(), batches_in(slice)),
            [&](std::size_t i, double) {
              Timer a;
              {
                TraceSpan publish(tr, "publish");
                s.svc->apply_batch(stream[i].insertions, stream[i].deletions);
              }
              const double total = a.seconds();
              publish_s.push_back(s.svc->last_publish_seconds());
              apply_s.push_back(total - publish_s.back());
              region.push_back(static_cast<double>(
                  s.svc->engine().last_batch().region_edges));
            });
      }
    }
    const QueryRun tcp = merged(readers);
    r.count(tcp.latency_s.size() + tcp.errors, tcp.errors,
            "traced query batches");
    QueryRun local;
    {
      TraceSpan span(tr, "queries");
      local = query_in_process(*s.svc->snapshot(),
                               std::min(0.5, 0.05 * cfg.seconds), cfg.seed);
    }
    r.layer("server.eval_ns_per_query",
            median(local.latency_s) * 1e9 / kQueryBatch);
    r.layer("server.rtt_overhead_us",
            (median(tcp.latency_s) - median(local.latency_s)) * 1e6);
    s.srv->stop();
    r.layer("server.error_replies",
            static_cast<double>(s.srv->stats().error_replies.load()));
    if (churn) {
      r.layer("loadgen.late_p99_ms", quantile(lateness(readers), 0.99) * 1e3);
      r.layer("core.dynamic.apply_s", median(apply_s));
      r.layer("server.snapshot_build_s", median(publish_s));
      r.layer("core.dynamic.region_edges", median(region));
      r.layer("core.dynamic.fallback_frac",
              apply_s.empty() ? 0
                              : static_cast<double>(s.svc->engine().fallbacks() -
                                                    fallbacks_before) /
                                    apply_s.size());
    }
    BccContext c4(kThreads);
    const EdgeList& served = s.svc->engine().graph();
    {
      TraceSpan span(tr, "solve");
      r.check(solve(c4, served, BccAlgorithm::kAuto, &tr).num_components > 0,
              "traced first solve");
    }
    BccResult warm;
    {
      TraceSpan span(tr, "solve");
      warm = solve(c4, served, BccAlgorithm::kAuto, &tr);
    }
    solve_layers(warm, untraced_solve_s, r);
  }
  layer_rollup(tr.report(), wall.seconds(), r);
  add_segment(segments, w, tr);
}

/// An owned copy of `g` (a copy of a borrowed EdgeList would still borrow).
EdgeList owned_copy(const EdgeList& g) {
  return EdgeList(g.n, std::vector<Edge>(g.edges.begin(), g.edges.end()));
}

void run_serve(const Workload& w, const Config& cfg, Result& r,
               std::vector<TraceSegment>& segments) {
  const bool churn = w.kind == Kind::kServeChurn;
  const std::string path = cfg.work_dir + "/" + w.name + ".pbg";
  r.format = "pbg";
  {
    EdgeList g = make_graph(w, cfg, &r.family);
    r.n = g.n;
    r.m = g.m();
    Executor ex(kThreads);
    io::write_pbg(path, ex, g, {.include_compressed = false});
  }
  r.file_bytes = std::filesystem::file_size(path);
  const double T = cfg.seconds;
  const double slice = 0.08 * T;
  const vid n = static_cast<vid>(r.n);

  // The churn stream is drawn against a replica engine before anything
  // is timed (1% of m per batch: m/200 links fail, m/200 recover).  Every
  // round replays it from the start on a fresh service, so every round
  // ends on the replica's final graph: `served`.
  std::vector<MutationBatch> stream;
  EdgeList served;
  {
    BccContext rctx(kThreads);
    io::map_prepared_graph(rctx, path);
    if (churn) {
      Timer t;
      BatchDynamicBcc replica(rctx, *rctx.mapped_graph());
      stream = make_churn_stream(replica, static_cast<int>(batches_in(slice)),
                                 std::max<eid>(r.m / 200, 1), cfg.seed);
      r.phases["stream_generation_s"] = t.seconds();
      served = owned_copy(replica.graph());
    } else {
      served = owned_copy(*rctx.mapped_graph());
    }
  }
  // Static solves of the served graph; the untimed first ones warm the
  // contexts and are the oracles' fresh solves.
  BccContext c4(kThreads);
  BccContext c1(1);
  const BccResult fresh = solve(c4, served);
  const BccResult p1_first = solve(c1, served);
  const Snapshot reference(c4.executor(), served, fresh, stream.size());
  r.engine = engine_of(fresh);

  // Rounds, each taking one value of every metric (see run_static):
  //  - set-up: file until the first query batch is answered over TCP;
  //  - a window of TCP load on that service;
  //  - warm p=4 re-solves of the served graph, each plus a Snapshot
  //    build (serve-read's full refresh), and the same re-solves at p=1.
  std::vector<double> setup, labels, solve_s, snapshot_s, visible_s, p1_s;
  std::vector<double> qps, q50, q90, q99;
  std::vector<double> visible_all, late, mutation_rtt;
  std::uint64_t query_batches = 0;
  std::uint64_t query_errors = 0;
  std::size_t arena = 0;
  std::size_t snapshot_bytes = 0;
  std::mt19937_64 rng(cfg.seed);
  std::vector<Query> batch;
  repeat(0.9 * T, 5, [&](int rep) {
    Timer t;
    Serving s;
    s.ctx = std::make_unique<BccContext>(churn ? kChurnWriterThreads : kThreads);
    io::map_prepared_graph(*s.ctx, path);
    s.svc = std::make_unique<BccService>(*s.ctx, *s.ctx->mapped_graph());
    labels.push_back(t.seconds());
    s.srv = std::make_unique<BccServer>(*s.svc);
    fill_batch(batch, rng, n, r.m);
    const QueryReply reply = BccClient(kHost, s.srv->port()).query(batch);
    setup.push_back(t.seconds());
    r.check(answers_match(*s.svc->snapshot(), batch, reply),
            "first query batch answered correctly");

    const std::uint64_t seed = cfg.seed * 1000 + rep;
    MutationLog muts;
    std::vector<ReaderLog> readers;
    t.reset();
    if (churn) {
      BccClient writer(kHost, s.srv->port());
      readers = churn_window(
          s.srv->port(), n, r.m, slice, seed, stream.size(),
          [&](std::size_t i, double due_s) {
            Timer sent;
            const server::InfoReply info = writer.apply_batch(
                stream[i].insertions, stream[i].deletions);
            muts.rtt_s.push_back(sent.seconds());
            muts.due_s.push_back(due_s);
            muts.version.push_back(info.version);
          });
    } else {
      readers = closed_loop(s.srv->port(), n, r.m, slice, seed);
    }
    QueryRun q = merged(readers);
    // Open loop: throughput runs until the last reply arrived, so a server
    // that falls behind its offered load reads below it.
    q.elapsed_s = churn ? last_arrival(readers) : t.seconds();
    s.srv->stop();
    qps.push_back(q.qps());
    q50.push_back(quantile(q.latency_s, 0.5));
    q90.push_back(quantile(q.latency_s, 0.9));
    q99.push_back(quantile(q.latency_s, 0.99));
    query_batches += q.latency_s.size();
    query_errors += q.errors;
    const server::ServerStats& stats = s.srv->stats();
    r.check(stats.error_replies.load() == 0, "server sent no error replies");
    const std::shared_ptr<const Snapshot> epoch = s.svc->snapshot();
    snapshot_bytes = epoch->memory_bytes();
    if (churn) {
      r.count(muts.version.size(), 0, "mutation batches applied");
      r.check(muts.version.size() == stream.size() &&
                  epoch->version() == stream.size(),
              "one epoch published per mutation batch");
      const std::vector<double> v = visible_latencies(readers, muts, r);
      visible_s.push_back(median(v));
      visible_all.insert(visible_all.end(), v.begin(), v.end());
      const std::vector<double> l = lateness(readers);
      late.insert(late.end(), l.begin(), l.end());
      mutation_rtt.insert(mutation_rtt.end(), muts.rtt_s.begin(),
                          muts.rtt_s.end());
      r.check(epoch_matches(*epoch, reference),
              "final epoch matches a fresh solve of the final graph");
      r.counters["fallbacks"] += static_cast<double>(s.svc->engine().fallbacks());
    } else {
      for (const ReaderLog& log : readers) {
        for (const auto& [queries, answer] : log.retained) {
          r.check(answers_match(*epoch, queries, answer),
                  "sampled reply matches an in-process re-evaluation");
          r.counters["replies_rechecked"] += 1;
        }
      }
    }

    std::vector<double> round_solve, round_snapshot, round_refresh, round_p1;
    for (int k = 0; k < kSolvesPerServeRound; ++k) {
      t.reset();
      const BccResult res = solve(c4, served);
      const double sv = t.lap();
      const Snapshot snap(c4.executor(), served, res, 0);
      round_snapshot.push_back(t.seconds());
      round_solve.push_back(sv);
      round_refresh.push_back(sv + round_snapshot.back());
      arena = std::max(arena, res.peak_workspace_bytes);
      r.check(res.num_components == fresh.num_components,
              "re-solve finds the fresh solve's block count");
      t.reset();
      const BccResult res1 = solve(c1, served);
      round_p1.push_back(t.seconds());
      r.check(res1.num_components == fresh.num_components,
              "p=1 re-solve finds the fresh solve's block count");
    }
    solve_s.push_back(median(round_solve));
    snapshot_s.push_back(median(round_snapshot));
    p1_s.push_back(median(round_p1));
    // serve-read never mutates, so like the static workloads it makes a
    // change visible by a full refresh: re-solve plus a snapshot build.
    if (!churn) visible_s.push_back(median(round_refresh));
  });
  r.count(query_batches + query_errors, query_errors, "query batches answered");

  r.check(same_blocks(fresh, p1_first), "p=1 and p=4 labels agree");
  Timer ht_timer;
  const BccResult ht = solve(c1, served, BccAlgorithm::kSequential);
  r.phases["sequential_s"] = ht_timer.seconds();
  r.check(same_blocks(fresh, ht), "fresh solve agrees with Hopcroft-Tarjan");
  if (served.m() <= kCertificateMaxEdges) {
    const ValidationReport cert = validate_bcc(c4.executor(), served, fresh);
    r.check(cert.ok, "validate_bcc: " + cert.message);
  }

  r.metric("setup_s", setup);
  r.metric("time_to_labels_s", labels);
  r.metric("solve_s", solve_s);
  r.metric("arena_peak_mib", arena / kMiB, solve_s.size());
  r.metric("snapshot_mib", snapshot_bytes / kMiB, setup.size());
  r.metric("query_qps", qps);
  r.metric("query_p50_us", q50, 1e6);
  r.phases["query_p90_s"] = median(q90);
  r.phases["query_p99_s"] = median(q99);
  r.metric("visible_p50_ms", visible_s, 1e3);
  r.phases["solve_p1_s"] = median(p1_s);
  r.counters["query_batches"] = static_cast<double>(query_batches);
  std::vector<double> start_s;
  for (std::size_t i = 0; i < setup.size(); ++i) {
    start_s.push_back(setup[i] - labels[i]);
  }
  r.phases["service_ready_s"] = median(labels);
  r.phases["server_start_first_query_s"] = median(start_s);
  r.phases["snapshot_build_s"] = median(snapshot_s);
  if (churn) {
    r.phases["visible_p90_s"] = quantile(visible_all, 0.9);
    r.phases["mutation_rtt_s"] = median(mutation_rtt);
    r.phases["loadgen_late_p99_s"] = quantile(late, 0.99);
  }
  r.counters["blocks"] = fresh.num_components;
  r.working_set_bytes = working_set(served.n, served.m(), arena);

  if (cfg.traced()) {
    trace_serve(w, path, stream, median(solve_s), cfg, r, segments);
  }
  std::filesystem::remove(path);
}

// ---- driver ----

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "bench_e2e: %s\n"
               "usage: bench_e2e [--workload NAME]... [--seed S] [--seconds T]\n"
               "                 [--scale F] [--out run.json]\n"
               "                 [--trace-out trace.json] [--work-dir DIR]\n"
               "workloads:",
               problem.c_str());
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

double parse_number(const std::string& flag, const char* text, double lo,
                    double hi) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(v >= lo && v <= hi)) {
    usage(flag + " " + text + " is out of range");
  }
  return v;
}

Config parse_args(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      const Workload* found = nullptr;
      for (const Workload& w : kWorkloads) {
        if (w.name == std::string_view(value)) found = &w;
      }
      if (found == nullptr) usage(std::string("unknown workload ") + value);
      cfg.workloads.push_back(found);
    } else if (flag == "--seed") {
      cfg.seed = static_cast<std::uint64_t>(parse_number(flag, value, 0, 1e15));
    } else if (flag == "--seconds") {
      cfg.seconds = parse_number(flag, value, 0.1, 600);
    } else if (flag == "--scale") {
      cfg.scale = parse_number(flag, value, 1e-4, 4);
    } else if (flag == "--out") {
      cfg.out = value;
    } else if (flag == "--trace-out") {
      cfg.trace_out = value;
    } else if (flag == "--work-dir") {
      cfg.work_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (cfg.workloads.empty()) {
    for (const Workload& w : kWorkloads) cfg.workloads.push_back(&w);
  }
  return cfg;
}

void print_result(const Result& r, bool traced) {
  std::printf("\n== %s: %s, n=%llu m=%llu, %s %.1f MB, engine %s\n",
              r.name.c_str(), r.family.c_str(),
              static_cast<unsigned long long>(r.n),
              static_cast<unsigned long long>(r.m), r.format.c_str(),
              r.file_bytes / 1e6, r.engine.c_str());
  for (const MetricDef& d : kEndToEnd) {
    const auto it = r.metrics.find(d.name);
    if (it == r.metrics.end()) continue;
    std::printf("  %-20s %14.6g %-4s (%zu samples)\n", d.name,
                it->second.value, d.unit, it->second.samples);
  }
  if (traced) {
    for (const MetricDef& d : kPerLayer) {
      const auto it = r.layers.find(d.name);
      if (it == r.layers.end()) continue;
      std::printf("  %-34s %14.6g %s\n", d.name, it->second.value, d.unit);
    }
    std::printf("  layer self time over the traced pass (wall %.4f s):\n",
                r.rollup_wall_s);
    for (const auto& [layer, s] : r.rollup) {
      std::printf("    %-14s %10.4f s  %5.1f%%\n", layer.c_str(), s,
                  r.rollup_wall_s > 0 ? 100 * s / r.rollup_wall_s : 0.0);
    }
  }
  std::printf("  operations %llu, failed %llu\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (const std::string& f : r.failures) {
    std::printf("  FAILED: %s\n", f.c_str());
  }
}

int run(int argc, char** argv) {
  const Config cfg = parse_args(argc, argv);
  std::filesystem::create_directories(cfg.work_dir);
  const Host host = probe_host();
  std::vector<Result> results;
  std::vector<TraceSegment> segments;
  for (const Workload* w : cfg.workloads) {
    Result r;
    r.name = w->name;
    try {
      if (w->kind == Kind::kStatic) {
        run_static(*w, cfg, r, segments);
      } else {
        run_serve(*w, cfg, r, segments);
      }
    } catch (const std::exception& e) {
      r.check(false, std::string("exception: ") + e.what());
    }
    if (cfg.traced()) zero_missing_layers(r);
    print_result(r, cfg.traced());
    std::fflush(stdout);
    results.push_back(std::move(r));
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Result& r : results) {
    attempted += r.attempted;
    failed += r.failed;
  }
  bool io_ok = true;
  if (!cfg.out.empty()) {
    std::string list = "[";
    for (std::size_t i = 0; i < results.size(); ++i) {
      list += (i > 0 ? ",\n  " : "\n  ") + result_json(results[i], host.l3_bytes);
    }
    list += "\n]";
    const std::string json = jobj({
        {"schema", jstr("parbcc-e2e/1")},
        {"host",
         jobj({{"nproc", std::to_string(host.nproc)},
               {"cpu_model", jstr(host.cpu_model)},
               {"l3_bytes", std::to_string(host.l3_bytes)},
               {"compiler", jstr(E2E_COMPILER)},
               {"flags", jstr(E2E_FLAGS)},
               {"build_type", jstr(E2E_BUILD_TYPE)},
               {"git_sha", jstr(host.git_sha)},
               {"git_dirty", host.git_dirty ? "true" : "false"},
               {"seed", std::to_string(cfg.seed)},
               {"p", std::to_string(kThreads)}})},
        {"config", jobj({{"seconds", jnum(cfg.seconds)},
                         {"scale", jnum(cfg.scale)},
                         {"traced", cfg.traced() ? "true" : "false"}})},
        {"correct", failed == 0 ? "true" : "false"},
        {"attempted", std::to_string(attempted)},
        {"failed", std::to_string(failed)},
        {"workloads", list},
    });
    std::FILE* f = std::fopen(cfg.out.c_str(), "w");
    io_ok = f != nullptr &&
            std::fwrite(json.data(), 1, json.size(), f) == json.size();
    if (f != nullptr) io_ok = std::fclose(f) == 0 && io_ok;
    if (!io_ok) std::fprintf(stderr, "bench_e2e: cannot write %s\n", cfg.out.c_str());
  }
  if (cfg.traced()) io_ok = write_chrome_json(cfg.trace_out, segments) && io_ok;

  // The summary line: with one workload its metrics by plain name, with
  // several each name prefixed by "<workload>/".
  Fields metrics;
  for (const Result& r : results) {
    const std::string prefix = results.size() == 1 ? "" : r.name + "/";
    const Fields part =
        cfg.traced() ? metric_fields(kPerLayer, r.layers, false, prefix)
                     : metric_fields(kEndToEnd, r.metrics, false, prefix);
    metrics.insert(metrics.end(), part.begin(), part.end());
  }
  const bool correct = failed == 0 && io_ok;
  std::printf("%s\n", jobj({{"correct", correct ? "true" : "false"},
                            {"attempted", std::to_string(attempted)},
                            {"failed", std::to_string(failed)},
                            {"metrics", jobj(metrics)}})
                          .c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace parbcc::e2e

int main(int argc, char** argv) { return parbcc::e2e::run(argc, argv); }
