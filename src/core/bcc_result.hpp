#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/trace.hpp"
#include "util/types.hpp"

/// \file bcc_result.hpp
/// Public result and option types of the biconnected-components API.

namespace parbcc {

/// Which implementation to run (paper nomenclature).
enum class BccAlgorithm {
  /// Hopcroft-Tarjan DFS, the paper's "best sequential implementation".
  kSequential,
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
  /// Charged by every engine whose traversal needs adjacency (all but
  /// TV-SMP); 0 on a conversion-cache hit.
  double conversion = 0;
  double spanning_tree = 0;
  double euler_tour = 0;
  double root_tree = 0;
  double low_high = 0;
  double label_edge = 0;
  double connected_components = 0;
  double filtering = 0;
  /// Wall-clock the trace rollup could not attribute to any Fig. 4
  /// step: the frame's own passes (loop scatter-back, telemetry), HT's
  /// whole DFS, and for the TV pipelines their label normalization and
  /// cut-info pass.  accounted() + unattributed == total up to clock
  /// granularity — the books balance by construction.
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

/// What every solve takes, whichever engine runs it.
struct SolveOptions {
  /// Width of a context built from these options (>= 1); a solve runs
  /// at its context's width.
  int threads = 1;
  /// Root vertex for spanning trees (only its component's numbering
  /// changes; results are root-independent as partitions).
  vid root = 0;
  /// Also compute per-vertex articulation flags and the bridge list.
  bool compute_cut_info = true;
  /// Event sink for the solve.  When null the solve records into a
  /// private Trace just long enough to derive StepTimes; point this at
  /// a caller-owned Trace to keep the raw events (Chrome export, span
  /// inspection across repeated solves).
  Trace* trace = nullptr;
};

struct BccOptions : SolveOptions {
  BccAlgorithm algorithm = BccAlgorithm::kAuto;
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
