#include "core/bcc.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

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
                bool cut_info, Trace& tr) const override {
    const PreparedGraph& pg = ctx.prepare(work);
    if (pg.conversion_seconds() > 0) {
      tr.charge(steps::kConversion, pg.conversion_seconds());
    }
    if (resolve(algorithm_, work) == BccAlgorithm::kSequential) {
      return hopcroft_tarjan_bcc(work, pg.csr(), cut_info, &tr);
    }
    return fast_bcc(ctx.executor(), ctx.workspace(), pg, root, cut_info, tr);
  }

 private:
  BccAlgorithm algorithm_;
};

/// What the frame needs to know about the caller's edges before it
/// solves: whether any endpoint is out of range, whether any edge is a
/// self-loop.
struct EdgeScan {
  bool out_of_range = false;
  bool has_loops = false;
};

/// One parallel pass over the edges in fixed-size chunks (a small
/// input is one chunk and runs inline).
EdgeScan scan_edges(Executor& ex, const EdgeList& g) {
  constexpr std::size_t kChunk = 4096;
  const std::size_t m = g.m();
  std::atomic<bool> out_of_range{false};
  std::atomic<bool> has_loops{false};
  ex.parallel_for(0, (m + kChunk - 1) / kChunk, 1, [&](std::size_t c) {
    const std::size_t end = std::min(m, (c + 1) * kChunk);
    bool bad = false;
    bool loop = false;
    for (std::size_t e = c * kChunk; e < end; ++e) {
      const Edge& edge = g.edges[e];
      bad |= edge.u >= g.n || edge.v >= g.n;
      loop |= edge.u == edge.v;
    }
    if (bad) out_of_range.store(true, std::memory_order_relaxed);
    if (loop) has_loops.store(true, std::memory_order_relaxed);
  });
  return {out_of_range.load(), has_loops.load()};
}

/// Lift a solve of the loop-free copy back onto the caller's edges:
/// kept edges keep their labels, the i-th self-loop takes id k + i, and
/// the bridge ids map through `kept`, which is ascending, so their
/// order holds.  Articulation flags are unchanged by loops.
void restore_loops(Executor& ex, const EdgeList& g,
                   const BccContext::StrippedGraph& stripped,
                   BccResult& result) {
  const std::vector<eid>& kept = stripped.kept;
  const std::vector<eid>& loops = stripped.loops;
  std::vector<vid> full(g.m());
  ex.parallel_for(kept.size(), [&](std::size_t j) {
    full[kept[j]] = result.edge_component[j];
  });
  const vid k = result.num_components;
  ex.parallel_for(loops.size(), [&](std::size_t i) {
    full[loops[i]] = k + static_cast<vid>(i);
  });
  ex.parallel_for(result.bridges.size(), [&](std::size_t i) {
    result.bridges[i] = kept[result.bridges[i]];
  });
  result.edge_component = std::move(full);
  result.num_components = k + static_cast<vid>(loops.size());
}

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

  const EdgeScan scan = scan_edges(ex, g);
  if (scan.out_of_range) {
    throw std::invalid_argument(
        "biconnected_components: edge endpoint out of range");
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
  const bool has_loops = scan.has_loops;
  const BccContext::StrippedGraph* stripped =
      has_loops ? &ctx.strip(g) : nullptr;
  const EdgeList& work = stripped != nullptr ? stripped->graph : g;

  {
    TraceSpan root_span(tr, engine.name(work));
    result = engine.run(ctx, work, opt.root, opt.compute_cut_info, tr);
    if (has_loops) {
      TraceSpan span(tr, "loop_components");
      restore_loops(ex, g, *stripped, result);
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
  // driver solves, its cut info and the loop scatter-back — so the
  // derived steps and the frame's own wall clock can no longer disagree.
  result.trace = tr.report_since(trace_mark);
  result.times = derive_step_times(result.trace, total.seconds());
  return result;
}

BccResult biconnected_components(BccContext& ctx, const EdgeList& g,
                                 const BccOptions& options) {
  return solve_frame(ctx, g, options, LibraryEngine(options.algorithm));
}

}  // namespace parbcc
