#pragma once

#include <span>
#include <vector>

#include "graph/edge_list.hpp"
#include "util/thread_pool.hpp"
#include "util/types.hpp"
#include "util/workspace.hpp"

/// \file shiloach_vishkin.hpp
/// Parallel connected components by graft-and-shortcut, the SMP
/// adaptation of Shiloach-Vishkin the paper uses twice: as TV step 6
/// (components of the auxiliary graph) and — extended with hook-edge
/// recording in paper/sv_tree.hpp — as TV step 1.
///
/// Two hooking/shortcut schemes share the entry point:
///
///  - kClassic: each pass grafts current roots onto strictly smaller
///    neighbouring labels (CAS-arbitrated, so a root moves exactly
///    once) and then pointer-jumps every label one step.  O(log n)
///    passes in practice.
///  - kFastSV (Zhang, Azad & Hu 2020): stride-2 hooking — labels are
///    lowered toward the *grandparent* label of the opposite endpoint
///    with priority min-writes (stochastic hooking on label[label[u]],
///    aggressive hooking on label[u] itself) — followed by a full
///    pointer-jumping loop that flattens every label chain to a star
///    before the next pass.  Both changes shrink the label chains a
///    pass has to fight, cutting the pass count 2-4x on long-chain
///    structures (torus, meshes) and by 1-2 passes on random graphs.
///
/// Both schemes converge to the same fixpoint — label[v] is the
/// minimum vertex id of v's component — so they are interchangeable
/// everywhere; kAuto resolves to kFastSV.
///
/// The labels are updated in place through std::atomic_ref, so the
/// output array doubles as the working array — no separate atomic
/// vector and no copy-out pass; the only scratch is the O(p)
/// convergence flags, drawn from the Workspace.

namespace parbcc {

/// Hooking/shortcut scheme for the SV engines (components and
/// spanning forest).  kAuto resolves to kFastSV; kClassic exists for
/// the ablation bench and tests.
enum class SvMode {
  kAuto,
  kClassic,
  kFastSV,
};

/// Convergence telemetry for one SV run.
struct SvStats {
  /// Graft+shortcut passes until the labels stopped changing
  /// (including the final no-change pass that detects convergence).
  vid rounds = 0;
};

/// Component labels for vertices [0, n) written into `label` (size n):
/// label[v] is the smallest vertex id of v's component, with
/// label[root] == root.
void connected_components_sv(Executor& ex, Workspace& ws, vid n,
                             std::span<const Edge> edges,
                             std::span<vid> label,
                             SvMode mode = SvMode::kAuto,
                             SvStats* stats = nullptr);

/// Sequential union-find components with the same root-label contract.
std::vector<vid> connected_components_seq(vid n, std::span<const Edge> edges);

/// Number of distinct components in a root-labeled array
/// (label[v] == v exactly for roots).
vid count_components(std::span<const vid> labels);

/// Remap arbitrary labels to contiguous [0, k); returns k.
/// Order: by first appearance of each label, so results are
/// deterministic given a deterministic labeling.
vid normalize_labels(std::span<vid> labels);

}  // namespace parbcc
