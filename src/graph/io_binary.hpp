#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "graph/csr.hpp"
#include "graph/edge_list.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

/// \file io_binary.hpp
/// The .pbg binary graph format and its zero-copy mmap loader.
///
/// A .pbg file is a prepared graph: the edge list *and* its finished
/// CSR, laid out so the solvers can run on the mapped bytes directly —
/// no parse, no CSR rebuild, no copy.  Loading is one mmap plus O(n)
/// validation; the real cost moves to page faults, which the optional
/// prefault pass spreads across threads.
///
/// Layout (little-endian, all section offsets 64-byte aligned):
///
///   [0x00] u64  magic "PBGRAPH1"
///   [0x08] u32  version (= 1)
///   [0x0c] u32  flags   (0; bit 0 marked the Rice-compressed sections
///                        of older files, which the loader rejects)
///   [0x10] u32  n
///   [0x14] u32  reserved (0)
///   [0x18] u64  m
///   [0x20] section table: 7 x { u64 offset, u64 bytes, u64 checksum }
///            [0] edges    m     x Edge  {u32 u, u32 v}
///            [1] offsets  n + 1 x u32   CSR row offsets (offsets[n] == 2m)
///            [2] targets  2m    x u32   neighbour per arc
///            [3] eids     2m    x u32   edge id per arc
///            [4..6] reserved (all zero)
///   [0xc8] u64  header checksum (bytes [0x00, 0xc8))
///   ...    zero pad to 0x100, then the sections
///
/// CSR rows in the file are *canonical*: sorted by (neighbour, edge
/// id), so one graph always converts to the same bytes (adjacency
/// order is unspecified by contract, so canonicalization is invisible
/// to the algorithms).
///
/// The loader treats the file as untrusted, exactly like
/// io::read_edge_list treats text: magic/version/header-checksum,
/// unsupported flags, hostile n/m (ids must fit the 32-bit space, 2m
/// must fit an eid), section bounds vs. the real file size, and offsets
/// monotonicity are all rejected with a named error *before any
/// allocation*.  Section checksums and per-element range checks
/// (edges/targets < n, eids < m) are O(data) and opt-in via
/// MapOptions::verify — the converter always writes checksums, so
/// paranoid callers can demand end-to-end integrity.

namespace parbcc::io {

inline constexpr std::uint64_t kPbgMagic = 0x3148504152474250ull;  // "PBGRAPH1"
inline constexpr std::uint32_t kPbgVersion = 1;
inline constexpr std::size_t kPbgHeaderBytes = 256;

struct PbgWriteOptions {
  /// Must stay false: the writer no longer emits compressed sections
  /// and throws std::invalid_argument when asked to.  The field exists
  /// only so a frozen benchmark call site that spells it out keeps
  /// compiling.
  bool include_compressed = false;
};

/// Convert `g` to a .pbg file at `path`: builds the CSR (parallel
/// bucket scatter), canonicalizes the rows, checksums every section,
/// and writes atomically (temp file + rename).  Throws
/// std::runtime_error on I/O failure.
void write_pbg(const std::string& path, Executor& ex, const EdgeList& g,
               const PbgWriteOptions& opt = {});

struct MapOptions {
  /// Touch every mapped page up front.  With `executor` set the touch
  /// loop is a parallel_for, so the kernel's fault-in work is spread
  /// across cores instead of serializing on the first traversal.
  bool prefault = false;
  Executor* executor = nullptr;
  /// Deep integrity pass: recompute section checksums and range-check
  /// every element (O(file bytes), faults everything in).
  bool verify = false;
  /// Receives io_map / io_prefault spans and io_mapped_bytes /
  /// io_prefault_bytes counters.  Orchestrator-only, like the solver
  /// drivers' traces.
  Trace* trace = nullptr;
};

/// A .pbg file mapped into memory, exposing the graph views the
/// solver stack consumes: an EdgeList whose EdgeStore borrows the
/// edges section and a Csr adopting the offsets/targets/eids sections.
/// All views point into the mapping — the MappedGraph must outlive
/// every solve and every cache entry built on it (BccContext::adopt
/// takes ownership for exactly that reason).  Move-only; unmaps on
/// destruction.
class MappedGraph {
 public:
  /// Map and validate `path`.  Throws std::runtime_error naming the
  /// defect on any malformed input (see file comment for the taxonomy).
  static MappedGraph map(const std::string& path, const MapOptions& opt = {});

  MappedGraph(MappedGraph&& o) noexcept { *this = std::move(o); }
  MappedGraph& operator=(MappedGraph&& o) noexcept;
  MappedGraph(const MappedGraph&) = delete;
  MappedGraph& operator=(const MappedGraph&) = delete;
  ~MappedGraph();

  const EdgeList& graph() const { return graph_; }
  const Csr& csr() const { return csr_; }
  std::size_t file_bytes() const { return length_; }

 private:
  MappedGraph() = default;

  void* base_ = nullptr;
  std::size_t length_ = 0;
  EdgeList graph_;
  Csr csr_;
};

/// Mixing checksum over a byte range (8-byte stride + splitmix finale)
/// — the integrity primitive of both the writer and the verifier.
/// Not cryptographic; it exists to catch truncation and bit rot.
std::uint64_t pbg_checksum(const void* data, std::size_t bytes);

}  // namespace parbcc::io
