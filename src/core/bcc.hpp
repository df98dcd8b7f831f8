#pragma once

#include "core/bcc_context.hpp"
#include "core/bcc_result.hpp"
#include "graph/edge_list.hpp"
#include "util/thread_pool.hpp"

/// \file bcc.hpp
/// Public entry point of parbcc: biconnected components of an
/// undirected graph.
///
///   #include "core/bcc.hpp"
///   parbcc::BccContext ctx(/*threads=*/8);
///   parbcc::BccOptions opt;
///   opt.algorithm = parbcc::BccAlgorithm::kTvFilter;
///   parbcc::BccResult r = parbcc::biconnected_components(ctx, graph, opt);
///   // ...further solves on ctx reuse the thread pool, the scratch
///   // arena and (for the same graph object) the adjacency cache.
///
/// The dispatcher accepts any undirected graph: disconnected inputs are
/// decomposed into connected components first (each is solved with the
/// selected algorithm), parallel edges are handled natively, and
/// self-loops are split off as their own single-edge components.
/// kAuto cascades: tiny inputs (n + m below a fixed cutoff) go to
/// Hopcroft-Tarjan; inputs with at most 4n distinct edges go to TV-opt
/// (the paper's §4 fallback rule); denser ones go to FastBCC or
/// TV-filter, whichever a measured per-element cost model predicts is
/// faster.

namespace parbcc {

/// Compute biconnected components inside a reusable solve session.
/// All O(n + m) scratch is drawn from the context's arena; the result
/// reports the arena high-water mark and reuse telemetry.
BccResult biconnected_components(BccContext& ctx, const EdgeList& g,
                                 const BccOptions& options = {});

/// Compute biconnected components using a caller-provided executor
/// (its thread count wins over options.threads).  Owns a transient
/// context per call.
BccResult biconnected_components(Executor& ex, const EdgeList& g,
                                 const BccOptions& options = {});

/// Convenience overload creating an Executor(options.threads).
BccResult biconnected_components(const EdgeList& g,
                                 const BccOptions& options = {});

}  // namespace parbcc
