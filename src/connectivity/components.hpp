#pragma once

#include <span>

#include "graph/edge_list.hpp"
#include "util/thread_pool.hpp"
#include "util/types.hpp"
#include "util/workspace.hpp"

/// \file components.hpp
/// The library's one parallel connected-components routine and the
/// label compaction its callers share.

namespace parbcc {

/// Component labels for vertices [0, n) written into `label` (size n):
/// label[v] is the smallest vertex id of v's component.  Self-loops and
/// parallel edges are allowed.  A concurrent union-find over `label`
/// (init, hook every edge, flatten), so it takes no scratch from `ws`.
void connected_components(Executor& ex, Workspace& ws, vid n,
                          std::span<const Edge> edges, std::span<vid> label);

/// Remap arbitrary labels to contiguous [0, k) in order of first
/// appearance (deterministic given a deterministic labeling); returns k.
vid normalize_labels(std::span<vid> labels);

}  // namespace parbcc
