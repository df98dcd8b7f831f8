#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "connectivity/shiloach_vishkin.hpp"
#include "core/aux_graph.hpp"
#include "eulertour/euler_tour.hpp"
#include "spanning/bfs_tree.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"
#include "util/types.hpp"

/// \file bcc_result.hpp
/// Public result and option types of the biconnected-components API.

namespace parbcc {

class Csr;

/// Which implementation to run (paper nomenclature).
enum class BccAlgorithm {
  /// Hopcroft-Tarjan DFS, the paper's "best sequential implementation".
  kSequential,
  /// Direct SMP emulation of Tarjan-Vishkin (paper §3.1).
  kTvSmp,
  /// Engineered TV: merged spanning/root steps, level-sweep tree
  /// computations (paper §3.2).
  kTvOpt,
  /// The paper's new edge-filtering algorithm (Alg. 2, §4).
  kTvFilter,
  /// Connectivity-first skeleton algorithm (Dong, Wang, Gu & Sun 2023):
  /// BFS spanning tree, compressed Euler-tour tagging (preorder
  /// intervals + subtree low/high), and BCC labels straight out of a
  /// concurrent union-find over the skeleton — no auxiliary graph, no
  /// per-edge TV machinery.
  kFastBcc,
  /// Hopcroft-Tarjan when the loop-free edge count is at most
  /// kAutoSequentialMaxEdges (bcc.hpp), FastBCC otherwise.  No probe.
  kAuto,
};

const char* to_string(BccAlgorithm algorithm);

/// Canonical span names of the paper's Fig. 4 steps.  The drivers open
/// TraceSpans under these names and derive_step_times matches rollup
/// phases against them, so StepTimes can never drift from the trace.
/// Substrate files spell the same strings as literals (they sit below
/// core/ in the layering); trace_test pins the two spellings together.
namespace steps {
inline constexpr const char kConversion[] = "conversion";
inline constexpr const char kSpanningTree[] = "spanning_tree";
inline constexpr const char kEulerTour[] = "euler_tour";
inline constexpr const char kRootTree[] = "root_tree";
inline constexpr const char kLowHigh[] = "low_high";
inline constexpr const char kLabelEdge[] = "label_edge";
inline constexpr const char kConnectedComponents[] = "connected_components";
inline constexpr const char kFiltering[] = "filtering";
}  // namespace steps

/// Wall-clock seconds per algorithm step, named after the bars of the
/// paper's Fig. 4.  Steps an algorithm does not perform stay 0.
struct StepTimes {
  /// Input-representation conversion (edge list -> adjacency): the
  /// cost the paper highlights as "the discrepancy among the input
  /// representations ... brings non-negligible conversion cost".
  /// Charged by TV-opt and TV-filter, whose traversals need adjacency.
  double conversion = 0;
  double spanning_tree = 0;
  double euler_tour = 0;
  double root_tree = 0;
  double low_high = 0;
  double label_edge = 0;
  double connected_components = 0;
  double filtering = 0;
  /// Wall-clock the trace rollup could not attribute to any Fig. 4
  /// step: dispatch overhead, cut-info annotation, label
  /// normalization, scatter-backs.  accounted() + unattributed == total
  /// up to clock granularity — the books balance by construction.
  double unattributed = 0;
  double total = 0;

  double accounted() const {
    return conversion + spanning_tree + euler_tour + root_tree + low_high +
           label_edge + connected_components + filtering;
  }
};

/// Fill StepTimes from a trace rollup: each step is the summed
/// inclusive time of the same-named phases (at any nesting depth),
/// `total` is the caller's wall clock, and the gap lands in
/// `unattributed` (clamped at 0 — charges can make accounted time
/// exceed the measured wall by clock granularity).
StepTimes derive_step_times(const TraceReport& report, double total_seconds);

struct BccOptions {
  BccAlgorithm algorithm = BccAlgorithm::kAuto;
  /// SPMD width for the parallel algorithms (>= 1).
  int threads = 1;
  /// Root vertex for spanning trees (only its component's numbering
  /// changes; results are root-independent as partitions).
  vid root = 0;
  /// Also compute per-vertex articulation flags and the bridge list.
  bool compute_cut_info = true;
  /// List-ranking algorithm for TV-SMP's Root-tree step.
  ListRanker ranker = ListRanker::kHelmanJaja;
  /// Arc-sorting strategy for TV-SMP's Euler-tour step.  The bucket
  /// scatter is the default everywhere; the paper-faithful sample sort
  /// stays opt-in (paper_fidelity_test pins it).
  ArcSort arc_sort = ArcSort::kCountingSort;
  /// Frontier policy for TV-filter's BFS tree (kAuto = Beamer's
  /// direction-optimizing hybrid; forced modes for the ablation bench).
  BfsMode bfs_mode = BfsMode::kAuto;
  /// Hooking/shortcut scheme for every Shiloach-Vishkin use — the
  /// spanning forests of TV-SMP/TV-opt/TV-filter and, under
  /// kMaterialized aux_mode, the auxiliary-graph components of all
  /// three (kAuto = FastSV).
  SvMode sv_mode = SvMode::kAuto;
  /// Alg. 1 route for the TV drivers: kFused hooks aux pairs into a
  /// concurrent union-find as they are generated (no staged 3m buffer,
  /// no compaction); kMaterialized builds G' explicitly and solves it
  /// with Shiloach-Vishkin — the paper-faithful reference kept for
  /// fidelity tests and the ablation bench.
  AuxMode aux_mode = AuxMode::kFused;
  /// Loop scheduling model for the solve.  kWorkSteal (default) runs
  /// the parallel loops on the lazy-splitting fork-join scheduler with
  /// nested per-vertex regions in the skew-sensitive hot paths; kSpmd
  /// pins the paper's flat static-partition/shared-counter schedule
  /// (the printed algorithm — paper_fidelity_test runs under it).
  ExecMode exec_mode = ExecMode::kWorkSteal;
  /// Adjacency the caller already holds for the input graph, so the
  /// dispatcher never rebuilds it (StepTimes::conversion then reports
  /// 0).  Must be the Csr::build of exactly the edge list passed in;
  /// ignored when it cannot apply (size mismatch, input with
  /// self-loops, or a disconnected input that is decomposed into
  /// relabeled subproblems).
  const Csr* prebuilt_csr = nullptr;
  /// Event sink for the solve.  When null each driver records into a
  /// private Trace just long enough to derive StepTimes; point this at
  /// a caller-owned Trace to keep the raw events (Chrome export, span
  /// inspection across repeated solves).
  Trace* trace = nullptr;
};

/// Biconnected components of a graph, as a labeling of its edges.
struct BccResult {
  /// Number of biconnected components.
  vid num_components = 0;
  /// Component label per edge, contiguous in [0, num_components).
  /// Two edges share a label iff they lie in the same biconnected
  /// component.  Label values themselves depend on the algorithm and
  /// root; only the partition is canonical.
  std::vector<vid> edge_component;
  /// Per-vertex articulation flags (empty unless compute_cut_info).
  std::vector<std::uint8_t> is_articulation;
  /// Edge ids of bridges, ascending (empty unless compute_cut_info).
  /// A bridge is exactly a single-edge biconnected component.
  std::vector<eid> bridges;
  /// Per-step timing of the run, derived from `trace` (see
  /// derive_step_times) — never measured separately.
  StepTimes times;
  /// Rollup of the solve's trace slice: per-phase inclusive/exclusive
  /// seconds, call counts, and counter totals (SV rounds, BFS
  /// inspections, arena peak, ...).
  TraceReport trace;
  /// High-water mark of the context's Workspace arena during this solve
  /// (bytes).  0 when the solve never touched the arena (e.g. serial
  /// fast paths).
  std::size_t peak_workspace_bytes = 0;
  /// Arena allocations served from existing capacity during this solve.
  /// On a warm BccContext every allocation is a hit; a cold context
  /// additionally grows backing blocks (visible as hits < allocations).
  std::uint64_t arena_reuse_hits = 0;
};

}  // namespace parbcc
