#pragma once

#include <string>
#include <string_view>

#include "graph/edge_list.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

/// \file text_parse.hpp
/// Chunked parallel parsing of text graph formats.
///
/// The serial readers in io.hpp stream through an istream one token at
/// a time — correct, hardened, and the bottleneck the moment the input
/// is hundreds of megabytes (bench_io measures the gap).  These
/// parsers split the byte range into newline-aligned chunks, parse
/// each chunk into a thread-private edge buffer with a branch-light
/// integer scanner, and concatenate the buffers with a prefix-summed
/// parallel copy, so edge order (and therefore edge ids) still matches
/// the serial reader line for line.
///
/// SNAP input adds a densify and a dedupe, both sort-based and
/// parallel: a radix sort of (raw id, endpoint position) pairs whose
/// run heads are counted per block and prefix-summed into dense ids,
/// then a radix sort of one (lo, hi) key per edge whose first copies
/// are packed into the result.  Each is a few linear passes (the
/// radix passes stop at the highest live byte): on a 1.2M-line,
/// 150k-id file they take ~0.08 s at p = 4 and ~0.25 s at p = 1
/// (4-vCPU Xeon), next to a 0.02 s / 0.07 s line parse.
///
/// Inputs stay untrusted: the same caps the serial readers enforce
/// (n/m within the 32-bit id space, endpoints < n, no oversized
/// speculative allocation) apply, with errors naming the format and
/// the offending line.  Parse errors inside a chunk are collected and
/// rethrown on the orchestrator — worker threads never throw.

namespace parbcc::io {

/// Formats the parallel front end understands.  kMetis is
/// line-position-dependent (row i lists vertex i's neighbours), so it
/// delegates to the serial reader rather than fake a parallel parse.
enum class TextFormat {
  kAuto,      // sniff: DIMACS "p edge", "# "-commented SNAP, else edge list
  kEdgeList,  // io.hpp plain format: "n m" header, "u v" lines, # comments
  kDimacs,    // "c" comments, "p edge n m", "e u v" 1-based
  kSnap,      // headerless "u v" lines with arbitrary ids, # comments
  kMetis,     // serial fallback (see io.hpp)
};

/// Parse the io.hpp plain edge-list format from an in-memory buffer.
EdgeList parse_edge_list(Executor& ex, std::string_view text);

/// Parse DIMACS from an in-memory buffer.
EdgeList parse_dimacs(Executor& ex, std::string_view text);

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
