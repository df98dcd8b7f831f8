#pragma once

#include <iosfwd>
#include <string>

#include "graph/edge_list.hpp"

/// \file io.hpp
/// Text writers for the plain edge-list, DIMACS and METIS formats.
///
/// Each writer emits what the matching parser in text_parse.hpp reads
/// back (read_text_graph with kEdgeList, kDimacs or kMetis), edge for
/// edge.  The paper's inputs are synthetic; files exist to round-trip a
/// workload and to feed the converters.

namespace parbcc::io {

/// Plain format: "n m" header, then m lines "u v" with 0-based ids.
void write_edge_list(std::ostream& os, const EdgeList& g);
void write_edge_list_file(const std::string& path, const EdgeList& g);

/// DIMACS: a "c" comment, "p edge n m", then m lines "e u v" (1-based).
void write_dimacs(std::ostream& os, const EdgeList& g);

/// METIS (unweighted): header "n m", then line i lists the 1-based
/// neighbours of vertex i; every edge appears in both endpoint lines.
/// Self-loops are not representable and are rejected.
void write_metis(std::ostream& os, const EdgeList& g);

}  // namespace parbcc::io
