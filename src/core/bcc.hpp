#pragma once

#include <cstdint>

#include "core/bcc_context.hpp"
#include "core/bcc_result.hpp"
#include "graph/edge_list.hpp"

/// \file bcc.hpp
/// Public entry point of parbcc: biconnected components of an
/// undirected graph.
///
///   #include "core/bcc.hpp"
///   parbcc::BccContext ctx(/*threads=*/8);
///   parbcc::BccOptions opt;
///   opt.algorithm = parbcc::BccAlgorithm::kFastBcc;
///   parbcc::BccResult r = parbcc::biconnected_components(ctx, graph, opt);
///   // ...further solves on ctx reuse the thread pool, the scratch
///   // arena and (for the same graph object) the adjacency cache.
///
/// The solver accepts any undirected graph: parallel edges are handled
/// natively, self-loops are split off as their own single-edge
/// components, and both engines span disconnected inputs themselves.
/// kAuto runs Hopcroft-Tarjan on inputs with at most
/// kAutoSequentialMaxEdges loop-free edges and FastBCC on the rest;
/// it probes nothing and opens no span of its own.  The paper's TV-SMP,
/// TV-opt and TV-filter pipelines are reproduction code in the
/// parbcc_paper library (paper/solve.hpp).

namespace parbcc {

/// kAuto's one structural test: HT below 2^17 loop-free edges, FastBCC
/// from there on.  The HT/FastBCC crossover of a G(n, m) sweep at
/// m in {1.25n, 2n, 4n, 8n} and p = 4 on a 4-core host (EXPERIMENTS.md
/// A11).
inline constexpr std::uint64_t kAutoSequentialMaxEdges =
    (std::uint64_t{1} << 17) - 1;

/// Compute biconnected components inside a reusable solve session.
/// All O(n + m) scratch is drawn from the context's arena; the result
/// reports the arena high-water mark and reuse telemetry.  The width
/// and loop scheduling model are the context executor's.
BccResult biconnected_components(BccContext& ctx, const EdgeList& g,
                                 const BccOptions& options = {});

}  // namespace parbcc
