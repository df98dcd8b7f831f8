#include "paper/solve.hpp"

#include <optional>
#include <vector>

#include "connectivity/components.hpp"
#include "core/articulation.hpp"
#include "core/solve_frame.hpp"
#include "paper/shiloach_vishkin.hpp"
#include "paper/tv_core.hpp"

namespace parbcc::paper {
namespace {

/// Solve a connected, loop-free graph with one of the TV pipelines.
/// `cached` is `g`'s adjacency when the caller holds it; otherwise
/// TV-opt and TV-filter build their own.  TV-SMP needs none.
BccResult run_connected(Executor& ex, Workspace& ws, const EdgeList& g,
                        const PreparedGraph* cached, const PaperOptions& opt,
                        vid root, Trace& tr) {
  if (opt.algorithm == Algorithm::kTvSmp) {
    return tv_smp_bcc(ex, ws, g, opt, root, tr);
  }
  std::optional<PreparedGraph> built;
  if (cached == nullptr) built.emplace(ex, ws, g);
  const PreparedGraph& pg = cached != nullptr ? *cached : *built;
  if (pg.conversion_seconds() > 0) {
    tr.charge(steps::kConversion, pg.conversion_seconds());
  }
  return opt.algorithm == Algorithm::kTvOpt
             ? tv_opt_bcc(ex, ws, pg, opt, root, tr)
             : tv_filter_bcc(ex, ws, pg, opt, root, tr);
}

/// The TV pipelines' path for general (possibly disconnected) inputs:
/// decompose into connected components, relabel each as a compact
/// subproblem, and solve them one after another (each solve is
/// internally parallel).  A connected input takes its adjacency from
/// the context's conversion cache; subproblems are relabeled graphs
/// with their own.
BccResult run_general(BccContext& ctx, const EdgeList& g,
                      const PaperOptions& opt, vid root, Trace& tr) {
  Executor& ex = ctx.executor();
  Workspace& ws = ctx.workspace();
  const vid n = g.n;
  const eid m = g.m();

  std::vector<vid> comp;
  vid k = 0;
  {
    TraceSpan span(tr, "component_check");
    comp.resize(n);
    connected_components_sv(ex, ws, n, g.edges, comp);
    k = normalize_labels(comp);
  }

  if (k <= 1) {
    const PreparedGraph* pg =
        opt.algorithm == Algorithm::kTvSmp ? nullptr : &ctx.prepare(g);
    return run_connected(ex, ws, g, pg, opt, root, tr);
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
    const BccResult sub_result =
        run_connected(ex, ws, sub, nullptr, opt, /*root=*/0, tr);
    for (eid j = e_begin; j < e_end; ++j) {
      result.edge_component[edge_bucket[j]] =
          label_base + sub_result.edge_component[j - e_begin];
    }
    label_base += sub_result.num_components;
  }
  result.num_components = label_base;
  return result;
}

class TvEngine final : public BccEngine {
 public:
  explicit TvEngine(const PaperOptions& opt) : opt_(opt) {}

  const char* name(const EdgeList&) const override {
    return to_string(opt_.algorithm);
  }

  BccResult run(BccContext& ctx, const EdgeList& work, vid root,
                bool cut_info, Trace& tr) const override {
    BccResult result = run_general(ctx, work, opt_, root, tr);
    if (cut_info) {
      // The TV pipelines keep nothing past their labels to read cut
      // info from, so it is derived from the labels.
      TraceSpan span(tr, "cut_info");
      annotate_cut_info(ctx.executor(), ctx.workspace(), work, result);
    }
    return result;
  }

 private:
  const PaperOptions& opt_;
};

}  // namespace

const char* to_string(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kTvSmp:
      return "TV-SMP";
    case Algorithm::kTvOpt:
      return "TV-opt";
    case Algorithm::kTvFilter:
      return "TV-filter";
  }
  return "unknown";
}

BccResult solve(BccContext& ctx, const EdgeList& g, const PaperOptions& opt) {
  return solve_frame(ctx, g, opt, TvEngine(opt));
}

}  // namespace parbcc::paper
