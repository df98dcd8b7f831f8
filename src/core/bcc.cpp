#include "core/bcc.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/articulation.hpp"
#include "core/drivers.hpp"
#include "core/hopcroft_tarjan.hpp"
#include "core/solve_frame.hpp"
#include "util/timer.hpp"

namespace parbcc {
namespace {

BccAlgorithm resolve(BccAlgorithm algorithm, const EdgeList& work) {
  // kAuto: inputs up to the cutoff (and degenerate ones) run
  // Hopcroft-Tarjan, everything else FastBCC.  No probe, no span.
  if (algorithm != BccAlgorithm::kAuto) return algorithm;
  return work.m() <= kAutoSequentialMaxEdges ? BccAlgorithm::kSequential
                                             : BccAlgorithm::kFastBcc;
}

/// The library's engines: Hopcroft-Tarjan and FastBCC, both over the
/// context's cached adjacency.
class LibraryEngine final : public BccEngine {
 public:
  explicit LibraryEngine(BccAlgorithm algorithm) : algorithm_(algorithm) {}

  const char* name(const EdgeList& work) const override {
    return to_string(resolve(algorithm_, work));
  }

  BccResult run(BccContext& ctx, const EdgeList& work, vid root,
                Trace& tr) const override {
    const PreparedGraph& pg = ctx.prepare(work);
    if (pg.conversion_seconds() > 0) {
      tr.charge(steps::kConversion, pg.conversion_seconds());
    }
    if (resolve(algorithm_, work) == BccAlgorithm::kSequential) {
      return hopcroft_tarjan_bcc(work, pg.csr(), &tr);
    }
    return fast_bcc(ctx.executor(), ctx.workspace(), pg, root, tr);
  }

 private:
  BccAlgorithm algorithm_;
};

}  // namespace

const char* to_string(BccAlgorithm algorithm) {
  switch (algorithm) {
    case BccAlgorithm::kSequential:
      return "sequential";
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

BccResult solve_frame(BccContext& ctx, const EdgeList& g,
                      const SolveOptions& opt, const BccEngine& engine) {
  Executor& ex = ctx.executor();
  Workspace& ws = ctx.workspace();

  for (const Edge& e : g.edges) {
    if (e.u >= g.n || e.v >= g.n) {
      throw std::invalid_argument(
          "biconnected_components: edge endpoint out of range");
    }
  }
  if (opt.root >= g.n && g.n > 0) {
    throw std::invalid_argument("biconnected_components: root out of range");
  }

  Timer total;
  BccResult result;
  if (g.n == 0) return result;

  // Zero the scheduler counters, so the sched_* telemetry below
  // describes exactly this call.
  ex.reset_scheduler_stats();

  Trace local_trace(ex.threads());
  Trace& tr = opt.trace != nullptr ? *opt.trace : local_trace;
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

  {
    TraceSpan root_span(tr, engine.name(work));
    result = engine.run(ctx, work, opt.root, tr);

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

    if (opt.compute_cut_info) {
      TraceSpan span(tr, "cut_info");
      annotate_cut_info(ex, ws, g, result);
    }
  }

  // Scheduler telemetry: populated only when the work-stealing model
  // actually forked (kSpmd solves and pure-serial paths emit nothing,
  // which is what validate_trace.py asserts per segment).
  if (ex.mode() == ExecMode::kWorkSteal) {
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

  // One rollup covers the whole call — the engine's (possibly many)
  // driver solves, loop scatter-back and cut info — so the derived
  // steps and the frame's own wall clock can no longer disagree.
  result.trace = tr.report_since(trace_mark);
  result.times = derive_step_times(result.trace, total.seconds());
  return result;
}

BccResult biconnected_components(BccContext& ctx, const EdgeList& g,
                                 const BccOptions& options) {
  return solve_frame(ctx, g, options, LibraryEngine(options.algorithm));
}

}  // namespace parbcc
