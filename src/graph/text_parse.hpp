#pragma once

#include <string>
#include <string_view>

#include "graph/edge_list.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

/// \file text_parse.hpp
/// The text graph readers: one parser per format.
///
/// The line-oriented formats (plain edge list, DIMACS, SNAP) split the
/// byte range into newline-aligned chunks, parse each chunk into a
/// thread-private edge buffer with a branch-light integer scanner, and
/// concatenate the buffers with a prefix-summed parallel copy, so edge
/// order (and therefore edge ids) follows the file line for line.
/// METIS rows are positional (row i lists vertex i's neighbours), so
/// its parser is serial, over the same scanner and caps.
///
/// Grammar.  Fields are unsigned decimals separated by blanks (space,
/// tab, a CR before the newline); blank lines and '#' lines are skipped
/// wherever a header or edge line may appear.  A header or edge line
/// ends after its fields:
///   edge list  header "n m", then m lines "u v" (0-based, < n);
///   DIMACS     'c' comment lines, one "p edge n m" header, then m
///              lines "e u v" (1-based, <= n) with 'c' lines between;
///   METIS      header "n m [fmt]" (fmt absent or 0: unweighted), then
///              exactly n rows, row i the 1-based neighbours of vertex
///              i (a blank row is an isolated vertex), and every edge in
///              both its endpoints' rows; only blank and '#' lines follow;
///   SNAP       headerless "u v" lines with arbitrary 64-bit ids; any
///              further column (a weight) is ignored.
///
/// SNAP input adds a densify and a dedupe, two parallel radix sorts
/// (see parse_snap; EXPERIMENTS.md A10 has their stage timings).
///
/// Inputs are untrusted: declared counts must fit the 32-bit id space
/// (n < 2^32 - 1, m < 2^31) before any narrowing cast, endpoints are
/// range-checked against the declared n, and no allocation is sized by
/// a header alone.  Every violation throws std::runtime_error naming
/// the format and the offending value or line.  Parse errors inside a
/// chunk are collected and rethrown on the orchestrator — worker
/// threads never throw.

namespace parbcc::io {

/// The formats read_text_graph understands; each reaches exactly one
/// parse function below.
enum class TextFormat {
  kAuto,      // sniff: 'c'/'p' first byte is DIMACS, else edge list,
              // else METIS, else SNAP
  kEdgeList,  // parse_edge_list
  kDimacs,    // parse_dimacs
  kSnap,      // parse_snap
  kMetis,     // parse_metis
};

/// Parse the plain edge-list format from an in-memory buffer.
EdgeList parse_edge_list(Executor& ex, std::string_view text);

/// Parse DIMACS from an in-memory buffer.
EdgeList parse_dimacs(Executor& ex, std::string_view text);

/// Parse unweighted METIS from an in-memory buffer (serial).  Edges come
/// out in row order, each from its smaller endpoint's row.
EdgeList parse_metis(std::string_view text);

/// Parse a SNAP-style headerless edge list: arbitrary (possibly
/// sparse, possibly 64-bit) ids densified by sorted order, one
/// direction kept per undirected pair (SNAP ships directed arc lists;
/// keeping both directions would double every edge and erase every
/// bridge), self-loops dropped.  The result is a simple graph with
/// edges in ascending (lo, hi) order.  An id seen only in self-loops
/// still gets a vertex.  Beyond the line parse, cost is two parallel
/// radix sorts (2m endpoint pairs, then m edge keys of
/// ceil(log2 n^2) bits) plus linear rank and pack passes; no
/// comparison sort or binary search.  `trace` (orchestrator-only)
/// receives an io_densify span covering densify and dedupe.
EdgeList parse_snap(Executor& ex, std::string_view text,
                    Trace* trace = nullptr);

/// Read `path` and parse as `format` (kAuto sniffs).  Throws
/// std::runtime_error on unreadable files ("cannot open <path>: ..."
/// / "cannot read <path>: ...", e.g. a directory) and malformed input.
/// `trace` (orchestrator-only, like MapOptions::trace) receives
/// io_read and io_parse spans, io_parse enclosing parse_snap's
/// io_densify, and an io_text_bytes counter.
EdgeList read_text_graph(Executor& ex, const std::string& path,
                         TextFormat format = TextFormat::kAuto,
                         Trace* trace = nullptr);

}  // namespace parbcc::io
