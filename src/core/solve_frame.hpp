#pragma once

#include "core/bcc_context.hpp"
#include "core/bcc_result.hpp"
#include "graph/edge_list.hpp"
#include "util/trace.hpp"

/// \file solve_frame.hpp
/// The frame every solve shares, whichever engine labels the edges:
/// input checks, the self-loop split and its scatter-back, arena and
/// scheduler telemetry, and StepTimes derived from one trace rollup.
/// Every pass the frame makes over the edges is parallel.

namespace parbcc {

/// The engine half of a solve.
class BccEngine {
 public:
  /// Root span name of a solve of `work`; an engine that picks per
  /// input (kAuto) names its pick.
  virtual const char* name(const EdgeList& work) const = 0;

  /// Label the edges of `work` — the input with its self-loops split
  /// off, possibly disconnected — with contiguous ids (edge_component
  /// and num_components), recording spans and counters into `tr`.
  /// With `cut_info`, also fill is_articulation (n flags) and bridges
  /// (ascending edge ids of `work`); without it, leave both empty.
  virtual BccResult run(BccContext& ctx, const EdgeList& work, vid root,
                        bool cut_info, Trace& tr) const = 0;

 protected:
  ~BccEngine() = default;
};

/// Solve `g` with `engine` inside the frame.  Throws
/// std::invalid_argument on an out-of-range endpoint or root.
BccResult solve_frame(BccContext& ctx, const EdgeList& g,
                      const SolveOptions& opt, const BccEngine& engine);

}  // namespace parbcc
