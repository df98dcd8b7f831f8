#pragma once

#include "core/bcc_result.hpp"
#include "graph/edge_list.hpp"
#include "util/thread_pool.hpp"
#include "util/workspace.hpp"

/// \file articulation.hpp
/// Cut vertices and bridges derived from an edge labeling.
///
/// Once every edge carries its biconnected-component label, both kinds
/// of cut element fall out in O(n + m) parallel work:
///  - a vertex is an articulation point iff it is incident to edges of
///    two different components;
///  - a bridge is exactly a component containing a single edge.
/// This uniform derivation is shared by all four algorithms, so their
/// cut reports are directly comparable in tests.

namespace parbcc {

/// Fill result.is_articulation and result.bridges from
/// result.edge_component (labels must be contiguous in
/// [0, num_components)).  The per-vertex first-label and per-block
/// first-edge / multi-edge side arrays are Workspace scratch.  Every
/// shared slot is read before it is written and written only from its
/// initial value, so each vertex and each block line is written at
/// most twice however many edges meet there: no pass contends on a
/// hot line, even when the whole graph is one block.
void annotate_cut_info(Executor& ex, Workspace& ws, const EdgeList& g,
                       BccResult& result);

}  // namespace parbcc
