#pragma once

#include "core/bcc_context.hpp"
#include "core/bcc_result.hpp"
#include "graph/edge_list.hpp"
#include "paper/aux_graph.hpp"
#include "paper/euler_tour.hpp"

/// \file solve.hpp
/// The parbcc_paper library's one entry point: the paper's three
/// Tarjan-Vishkin pipelines, kept to reproduce its figures.
///
///   parbcc::BccContext ctx(/*threads=*/12);
///   parbcc::paper::PaperOptions opt;
///   opt.algorithm = parbcc::paper::Algorithm::kTvFilter;
///   parbcc::BccResult r = parbcc::paper::solve(ctx, graph, opt);

namespace parbcc::paper {

enum class Algorithm {
  /// Direct SMP emulation of Tarjan-Vishkin (paper §3.1).
  kTvSmp,
  /// Engineered TV: merged spanning/root steps, level-sweep tree
  /// computations (paper §3.2).
  kTvOpt,
  /// The paper's edge-filtering algorithm (Alg. 2, §4).
  kTvFilter,
};

const char* to_string(Algorithm algorithm);

struct PaperOptions : SolveOptions {
  Algorithm algorithm = Algorithm::kTvFilter;
  /// List-ranking algorithm for TV-SMP's Root-tree step.
  ListRanker ranker = ListRanker::kHelmanJaja;
  /// Arc-sorting strategy for TV-SMP's Euler-tour step.  The bucket
  /// scatter is the default; the paper-faithful sample sort stays
  /// opt-in (paper_fidelity_test pins it).
  ArcSort arc_sort = ArcSort::kCountingSort;
  /// Alg. 1 route of all three pipelines: kFused hooks aux pairs into a
  /// concurrent union-find as they are generated (no staged 3m buffer,
  /// no compaction); kMaterialized builds G' explicitly and solves it
  /// with Shiloach-Vishkin — the paper-faithful reference kept for
  /// fidelity tests and the ablation bench.
  AuxMode aux_mode = AuxMode::kFused;
};

/// Biconnected components of `g` by the TV pipeline opt.algorithm, in
/// the solve frame of biconnected_components (same checks and errors);
/// a disconnected input is solved one component at a time.
BccResult solve(BccContext& ctx, const EdgeList& g, const PaperOptions& opt);

}  // namespace parbcc::paper
