#pragma once

#include <string>

#include "core/bcc_result.hpp"
#include "graph/edge_list.hpp"
#include "util/thread_pool.hpp"

/// \file validate.hpp
/// Certificate checking for a biconnected-components result.
///
/// The checker verifies, without re-running any BCC algorithm, the
/// local exchange properties that characterise the block partition:
///
///  (1) labels are total and contiguous in [0, num_components);
///  (2) every component's edge set is connected (blocks are connected
///      subgraphs);
///  (3) every block of >= 2 edges is biconnected: removing any single
///      vertex leaves its edges connected (brute force on blocks of up
///      to 64 edges, Hopcroft-Tarjan on the block's subgraph above);
///  (4) two blocks never share more than one vertex;
///  (5) every cycle stays inside one block: for a spanning forest of
///      the graph, each nontree edge's fundamental-cycle tree path
///      carries a single label.
///
/// (5) forces cycle-mates together, so the checks never accept an
/// under-merged partition.  Over-merging is caught only by (3): two
/// adjacent bridges under one label form a connected block that shares
/// no vertex with another and closes no cycle, so they pass (2), (4)
/// and (5) (Validate.RejectsMergedBridges).  The checker does not
/// re-run the solver under test, so it doubles as a test oracle at
/// scales where the brute-force references are too slow.

namespace parbcc {

struct ValidationReport {
  bool ok = true;
  std::string message;  // first violation found, empty when ok
};

ValidationReport validate_bcc(Executor& ex, const EdgeList& g,
                              const BccResult& result);

}  // namespace parbcc
