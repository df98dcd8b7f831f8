#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/drivers.hpp"
#include "graph/edge_list.hpp"
#include "graph/io_binary.hpp"
#include "util/thread_pool.hpp"
#include "util/workspace.hpp"

/// \file bcc_context.hpp
/// A reusable biconnected-components solve session.
///
/// One solve allocates O(n + m) of scratch across a dozen pipeline
/// stages.  BccContext bundles the three things worth keeping warm
/// between solves:
///
///  - an Executor (thread pool) — spawning p threads per call is the
///    kind of overhead the paper's SMP methodology explicitly avoids;
///  - a Workspace arena — after the first solve the arena owns the
///    high-water capacity, so repeat solves allocate nothing from the
///    system (BccResult::arena_reuse_hits makes this observable);
///  - the edge-list -> adjacency conversion cache (PreparedGraph) —
///    the representation-discrepancy cost of paper §1 is paid at most
///    once per distinct input graph.
///
/// The context is single-threaded from the caller's perspective: one
/// solve at a time, matching the Workspace single-orchestrator rule.

namespace parbcc {

class BccContext {
 public:
  /// Own an Executor with `threads` SPMD participants (>= 1).
  explicit BccContext(int threads = 1)
      : owned_(std::in_place, threads < 1 ? 1 : threads), ex_(&*owned_) {}

  /// Borrow a caller-managed Executor (must outlive the context).
  explicit BccContext(Executor& ex) : ex_(&ex) {}

  BccContext(const BccContext&) = delete;
  BccContext& operator=(const BccContext&) = delete;

  Executor& executor() { return *ex_; }
  Workspace& workspace() { return ws_; }

  /// Adjacency for `g`, building it on first use and caching it keyed
  /// on the graph's address plus a content fingerprint — address alone
  /// is unsafe (a freed graph's storage can be reused by a different
  /// graph of the same size), and the fingerprint also makes in-place
  /// edge edits safe: a mutated graph simply misses and reconverts.
  /// The fingerprint is a parallel sum of a hash of (u, v, edge index)
  /// per edge: the same at every width, and changed by swapping two
  /// edges as well as by rewriting an endpoint.
  /// On a cache hit the PreparedGraph's conversion charge is waived,
  /// so StepTimes::conversion reports 0 for repeat solves of the same
  /// graph.
  const PreparedGraph& prepare(const EdgeList& g);

  /// Take ownership of a mapped .pbg file and seed the conversion
  /// cache with its on-disk arrays: the cache entry's EdgeList borrows
  /// the edges section and its Csr adopts the offsets/targets/eids
  /// sections — no CSR rebuild, no copy, conversion reported as 0.
  /// The mapping lives as long as the cache entry does; prepare()/solve
  /// calls on adopt(...)'s graph() are cache hits.  Replaces any
  /// previously adopted mapping.
  const PreparedGraph& adopt(io::MappedGraph&& mapped);

  /// The adopted mapping's graph view (nullptr when none) — what
  /// callers pass to biconnected_components after
  /// io::map_prepared_graph.
  const EdgeList* mapped_graph() const {
    return mapped_ ? &mapped_->graph() : nullptr;
  }

  /// A context-owned loop-free copy of an input graph, plus the map
  /// from surviving edges back to their original indices and the
  /// indices of the self-loops, both ascending.
  struct StrippedGraph {
    EdgeList graph;
    std::vector<eid> kept;
    std::vector<eid> loops;
  };

  /// Loop-free view of `g`, built on first use and cached keyed
  /// exactly like prepare() (address + content fingerprint) — so the
  /// dispatcher's warm re-solve of a loop-containing graph skips both
  /// the strip pass and the stripped adjacency rebuild.
  const StrippedGraph& strip(const EdgeList& g);

  /// Drop the conversion and stripped-graph caches (keeps the Executor
  /// and the arena).  An adopted mapping stays alive, so mapped_graph()
  /// and every reference taken from it remain valid; a later prepare()
  /// of it rebuilds the adjacency from the mapped edges.
  void invalidate() {
    cache_.reset();
    cached_graph_ = nullptr;
    strip_.reset();
    strip_source_ = nullptr;
  }

 private:
  std::optional<Executor> owned_;
  Executor* ex_;
  Workspace ws_;
  std::optional<io::MappedGraph> mapped_;
  std::optional<PreparedGraph> cache_;
  const EdgeList* cached_graph_ = nullptr;
  std::uint64_t cached_fp_ = 0;
  std::optional<StrippedGraph> strip_;
  const EdgeList* strip_source_ = nullptr;
  std::uint64_t strip_fp_ = 0;
};

namespace io {

/// One-call zero-copy ingestion: map + validate the .pbg at `path` and
/// adopt it into `ctx`'s conversion cache.  Solve afterwards with
/// `biconnected_components(ctx, *ctx.mapped_graph(), opt)` — the
/// prepare step is a guaranteed cache hit and conversion reports 0.
const PreparedGraph& map_prepared_graph(BccContext& ctx,
                                        const std::string& path,
                                        const MapOptions& opt = {});

}  // namespace io

}  // namespace parbcc
