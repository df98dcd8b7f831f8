#include "core/bcc.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "connectivity/shiloach_vishkin.hpp"
#include "core/articulation.hpp"
#include "core/drivers.hpp"
#include "core/hopcroft_tarjan.hpp"
#include "graph/csr.hpp"
#include "util/timer.hpp"

namespace parbcc {
namespace {

/// Solve a connected, loop-free graph with one of the paper's TV
/// pipelines, building adjacency on demand for the drivers that need
/// it.
BccResult run_connected(Executor& ex, Workspace& ws, const EdgeList& g,
                        const BccOptions& opt, BccAlgorithm algorithm) {
  switch (algorithm) {
    case BccAlgorithm::kTvSmp:
      return tv_smp_bcc(ex, ws, g, opt);
    case BccAlgorithm::kTvOpt: {
      const PreparedGraph pg(ex, ws, g);
      return tv_opt_bcc(ex, ws, pg, opt);
    }
    case BccAlgorithm::kTvFilter: {
      const PreparedGraph pg(ex, ws, g);
      return tv_filter_bcc(ex, ws, pg, opt);
    }
    case BccAlgorithm::kFastBcc:
    case BccAlgorithm::kSequential:
    case BccAlgorithm::kAuto:
      break;
  }
  throw std::logic_error("run_connected: unexpected algorithm");
}

/// As run_connected, but with a shared conversion cache for the
/// adjacency-hungry drivers; TV-SMP never needs (or pays for) it.
BccResult run_connected(Executor& ex, Workspace& ws, const PreparedGraph& pg,
                        const BccOptions& opt, BccAlgorithm algorithm) {
  switch (algorithm) {
    case BccAlgorithm::kTvSmp:
      return tv_smp_bcc(ex, ws, pg.graph(), opt);
    case BccAlgorithm::kTvOpt:
      return tv_opt_bcc(ex, ws, pg, opt);
    case BccAlgorithm::kTvFilter:
      return tv_filter_bcc(ex, ws, pg, opt);
    case BccAlgorithm::kFastBcc:
    case BccAlgorithm::kSequential:
    case BccAlgorithm::kAuto:
      break;
  }
  throw std::logic_error("run_connected: unexpected algorithm");
}

/// The TV pipelines' path for general (possibly disconnected) inputs:
/// decompose into connected components, relabel each as a compact
/// subproblem, and solve them one after another (each solve is
/// internally parallel).  FastBCC spans forests itself and never comes
/// here.
/// `pg`, when non-null, is a conversion cache for `g` itself; it only
/// applies on the connected fast path (subproblems are relabeled graphs
/// with their own adjacency).  Otherwise that fast path takes `g`'s
/// adjacency from `ctx`'s conversion cache.  Per-step times are not
/// assembled here: every driver records into opt.trace, and the
/// dispatcher derives StepTimes from the combined rollup once.
BccResult run_general(Executor& ex, Workspace& ws, const EdgeList& g,
                      const BccOptions& opt, BccAlgorithm algorithm,
                      const PreparedGraph* pg, BccContext& ctx) {
  const vid n = g.n;
  const eid m = g.m();

  std::vector<vid> comp;
  vid k = 0;
  {
    TraceSpan span(opt.trace, "component_check");
    comp = connected_components_sv(ex, ws, n, g.edges);
    k = normalize_labels(comp);
  }

  if (k <= 1) {
    BccOptions connected_opt = opt;
    if (connected_opt.root >= n) connected_opt.root = 0;
    if (algorithm == BccAlgorithm::kTvSmp) {
      // TV-SMP runs on the raw edge list; never build adjacency for it.
      return run_connected(ex, ws, g, connected_opt, algorithm);
    }
    return run_connected(ex, ws, pg ? *pg : ctx.prepare(g), connected_opt,
                         algorithm);
  }

  // Bucket vertices and edges by component (counting sort).  This path
  // is sequential bookkeeping over a rare input shape; the subproblem
  // solves below still draw their scratch from the shared arena.
  std::vector<vid> vertex_offset(k + 1, 0);
  std::vector<vid> new_id(n);
  for (vid v = 0; v < n; ++v) ++vertex_offset[comp[v] + 1];
  for (vid c = 0; c < k; ++c) vertex_offset[c + 1] += vertex_offset[c];
  {
    std::vector<vid> cursor(vertex_offset.begin(), vertex_offset.end() - 1);
    for (vid v = 0; v < n; ++v) {
      new_id[v] = cursor[comp[v]]++ - vertex_offset[comp[v]];
    }
  }
  std::vector<eid> edge_offset(k + 1, 0);
  std::vector<eid> edge_bucket(m);
  for (eid e = 0; e < m; ++e) ++edge_offset[comp[g.edges[e].u] + 1];
  for (vid c = 0; c < k; ++c) edge_offset[c + 1] += edge_offset[c];
  {
    std::vector<eid> cursor(edge_offset.begin(), edge_offset.end() - 1);
    for (eid e = 0; e < m; ++e) edge_bucket[cursor[comp[g.edges[e].u]]++] = e;
  }

  BccResult result;
  result.edge_component.assign(m, kNoVertex);
  vid label_base = 0;

  for (vid c = 0; c < k; ++c) {
    const eid e_begin = edge_offset[c];
    const eid e_end = edge_offset[c + 1];
    if (e_begin == e_end) continue;  // isolated vertex: nothing to label
    EdgeList sub;
    sub.n = vertex_offset[c + 1] - vertex_offset[c];
    sub.edges.reserve(e_end - e_begin);
    for (eid j = e_begin; j < e_end; ++j) {
      const Edge& e = g.edges[edge_bucket[j]];
      sub.edges.push_back({new_id[e.u], new_id[e.v]});
    }
    BccOptions sub_opt = opt;
    sub_opt.root = 0;
    sub_opt.compute_cut_info = false;
    BccResult sub_result = run_connected(ex, ws, sub, sub_opt, algorithm);
    for (eid j = e_begin; j < e_end; ++j) {
      result.edge_component[edge_bucket[j]] =
          label_base + sub_result.edge_component[j - e_begin];
    }
    label_base += sub_result.num_components;
  }
  result.num_components = label_base;
  return result;
}

}  // namespace

const char* to_string(BccAlgorithm algorithm) {
  switch (algorithm) {
    case BccAlgorithm::kSequential:
      return "sequential";
    case BccAlgorithm::kTvSmp:
      return "TV-SMP";
    case BccAlgorithm::kTvOpt:
      return "TV-opt";
    case BccAlgorithm::kTvFilter:
      return "TV-filter";
    case BccAlgorithm::kFastBcc:
      return "FastBCC";
    case BccAlgorithm::kAuto:
      return "auto";
  }
  return "unknown";
}

StepTimes derive_step_times(const TraceReport& report, double total_seconds) {
  StepTimes out;
  out.conversion = report.inclusive_seconds(steps::kConversion);
  out.spanning_tree = report.inclusive_seconds(steps::kSpanningTree);
  out.euler_tour = report.inclusive_seconds(steps::kEulerTour);
  out.root_tree = report.inclusive_seconds(steps::kRootTree);
  out.low_high = report.inclusive_seconds(steps::kLowHigh);
  out.label_edge = report.inclusive_seconds(steps::kLabelEdge);
  out.connected_components =
      report.inclusive_seconds(steps::kConnectedComponents);
  out.filtering = report.inclusive_seconds(steps::kFiltering);
  out.total = total_seconds;
  out.unattributed = std::max(0.0, total_seconds - out.accounted());
  return out;
}

BccResult biconnected_components(BccContext& ctx, const EdgeList& g,
                                 const BccOptions& options) {
  Executor& ex = ctx.executor();
  Workspace& ws = ctx.workspace();

  for (const Edge& e : g.edges) {
    if (e.u >= g.n || e.v >= g.n) {
      throw std::invalid_argument(
          "biconnected_components: edge endpoint out of range");
    }
  }
  if (options.root >= g.n && g.n > 0) {
    throw std::invalid_argument("biconnected_components: root out of range");
  }

  Timer total;
  BccResult result;
  if (g.n == 0) return result;

  // Apply the requested loop scheduling model for this solve only and
  // zero the scheduler counters, so the sched_* telemetry below
  // describes exactly this call.
  struct ModeGuard {
    Executor& ex;
    ExecMode prev;
    ModeGuard(Executor& e, ExecMode m) : ex(e), prev(e.mode()) {
      ex.set_mode(m);
    }
    ~ModeGuard() { ex.set_mode(prev); }
  } mode_guard(ex, options.exec_mode);
  ex.reset_scheduler_stats();

  Trace local_trace(ex.threads());
  Trace& tr = options.trace != nullptr ? *options.trace : local_trace;
  const Trace::Mark trace_mark = tr.mark();

  // Arena telemetry: peak is measured per solve, reuse hits as a delta
  // so the result describes this call only.
  ws.reset_peak();
  const std::uint64_t reuse_before = ws.reuse_hits();

  // Self-loops never participate in biconnectivity: split them off as
  // their own components and solve the stripped graph.  The loop-free
  // copy lives in the context, keyed on the caller's graph identity,
  // so a warm re-solve of a loopy graph reuses both the copy and the
  // conversion cache built over it instead of rebuilding per call.
  const bool has_loops = [&] {
    for (const Edge& e : g.edges) {
      if (e.u == e.v) return true;
    }
    return false;
  }();
  const BccContext::StrippedGraph* stripped =
      has_loops ? &ctx.strip(g) : nullptr;
  const EdgeList& work = stripped != nullptr ? stripped->graph : g;

  // A caller-supplied adjacency applies only when `work` is the exact
  // graph it was built from (stripping self-loops renumbers edges).
  // Otherwise adjacency comes from ctx.prepare(work): both the raw and
  // the stripped graph live long enough to key the context's conversion
  // cache (the stripped copy is context-owned).
  std::optional<PreparedGraph> built;
  const PreparedGraph* pg = nullptr;
  if (options.prebuilt_csr && !has_loops &&
      options.prebuilt_csr->num_vertices() == work.n &&
      options.prebuilt_csr->num_edges() == work.m()) {
    built.emplace(work, *options.prebuilt_csr);
    pg = &*built;
  }

  // kAuto: inputs up to the cutoff (and degenerate ones) run
  // Hopcroft-Tarjan, everything else FastBCC.  No probe, no span.
  BccAlgorithm algorithm = options.algorithm;
  if (algorithm == BccAlgorithm::kAuto) {
    algorithm = work.m() <= kAutoSequentialMaxEdges
                    ? BccAlgorithm::kSequential
                    : BccAlgorithm::kFastBcc;
  }

  BccOptions traced = options;
  traced.trace = &tr;

  {
    TraceSpan root_span(tr, to_string(algorithm));

    if (algorithm == BccAlgorithm::kSequential) {
      if (!pg) pg = &ctx.prepare(work);
      if (pg->conversion_seconds() > 0) {
        tr.charge(steps::kConversion, pg->conversion_seconds());
      }
      result = hopcroft_tarjan_bcc(ex, ws, work, pg->csr(),
                                   /*compute_cut_info=*/false, &tr);
    } else if (algorithm == BccAlgorithm::kFastBcc) {
      result = fast_bcc(ex, ws, pg ? *pg : ctx.prepare(work), traced);
    } else {
      result = run_general(ex, ws, work, traced, algorithm, pg, ctx);
    }

    if (has_loops) {
      TraceSpan span(tr, "loop_components");
      const std::vector<eid>& kept = stripped->kept;
      std::vector<vid> full(g.m());
      for (eid j = 0; j < kept.size(); ++j) {
        full[kept[j]] = result.edge_component[j];
      }
      vid next = result.num_components;
      for (eid e = 0; e < g.m(); ++e) {
        if (g.edges[e].u == g.edges[e].v) full[e] = next++;
      }
      result.edge_component = std::move(full);
      result.num_components = next;
    }

    if (options.compute_cut_info) {
      TraceSpan span(tr, "cut_info");
      annotate_cut_info(ex, ws, g, result);
    }
  }

  // Scheduler telemetry: populated only when the work-stealing model
  // actually forked (kSpmd solves and pure-serial paths emit nothing,
  // which is what validate_trace.py asserts per segment).
  if (options.exec_mode == ExecMode::kWorkSteal) {
    const SchedulerStats sched = ex.scheduler_stats();
    if (sched.tasks > 0) {
      tr.counter("sched_tasks", static_cast<double>(sched.tasks));
      tr.counter("sched_splits", static_cast<double>(sched.splits));
      tr.counter("sched_steals", static_cast<double>(sched.steals));
    }
  }

  result.peak_workspace_bytes = ws.peak_bytes();
  result.arena_reuse_hits = ws.reuse_hits() - reuse_before;
  tr.counter("peak_workspace_bytes",
             static_cast<double>(result.peak_workspace_bytes));
  tr.counter("arena_reuse_hits",
             static_cast<double>(result.arena_reuse_hits));

  // One rollup covers the whole call — the (possibly many) driver
  // solves, loop scatter-back and cut info — so the derived
  // steps and the dispatcher's own wall clock can no longer disagree.
  result.trace = tr.report_since(trace_mark);
  result.times = derive_step_times(result.trace, total.seconds());
  return result;
}

BccResult biconnected_components(Executor& ex, const EdgeList& g,
                                 const BccOptions& options) {
  BccContext ctx(ex);
  return biconnected_components(ctx, g, options);
}

BccResult biconnected_components(const EdgeList& g,
                                 const BccOptions& options) {
  BccContext ctx(options.threads < 1 ? 1 : options.threads);
  return biconnected_components(ctx, g, options);
}

}  // namespace parbcc
