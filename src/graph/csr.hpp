#pragma once

#include <span>
#include <vector>

#include "graph/edge_list.hpp"
#include "util/thread_pool.hpp"
#include "util/types.hpp"
#include "util/uninit.hpp"
#include "util/workspace.hpp"

/// \file csr.hpp
/// Compressed sparse row adjacency built in parallel from an edge list.
///
/// Each undirected edge {u, v} contributes the arc u->v to u's row and
/// v->u to v's row; every arc remembers the index of the edge it came
/// from so per-edge results (BCC labels) can be read off during
/// traversals.  The builder is a counting scatter: arcs are grouped by
/// contiguous vertex bucket via per-thread (thread block, bucket)
/// histograms and a prefix sum, then each bucket's arcs are placed into
/// their final rows by a thread-private counting sort — no 64-bit key
/// sort, no per-vertex atomics.  Degenerately sparse inputs (arcs <<
/// vertices) fall back to a by-source radix sort whose passes cover
/// only the significant bytes of the largest vertex id.  The order of
/// arcs within a row depends on the thread count — no algorithm in
/// this library depends on adjacency order, and tests compare label
/// partitions, not labels.
///
/// Storage is span-based: a built Csr owns its arrays, while an adopted
/// Csr (Csr::adopt) borrows caller-managed storage — the offsets /
/// targets / edge-id sections of an mmap'd .pbg file flow straight into
/// the solvers with no rebuild and no copy (see io_binary.hpp).
/// Consumers must never assume offsets().data() is heap-owned.

namespace parbcc {

class Csr {
 public:
  /// Build the adjacency structure of `g` using `ex`.  The builder's
  /// staging arrays (histograms, staged arc records, radix buffers)
  /// come from `ws`; the Csr itself owns its storage.
  static Csr build(Executor& ex, Workspace& ws, const EdgeList& g);

  /// Adopt caller-managed adjacency arrays without copying: `offsets`
  /// (n + 1 entries, offsets[n] == 2m), `nbrs` and `eids` (2m entries
  /// each, aligned).  The storage must outlive the Csr and every
  /// structure derived from it; contents are trusted (the mmap loader
  /// validates before adopting).
  static Csr adopt(vid n, eid m, std::span<const eid> offsets,
                   std::span<const vid> nbrs, std::span<const eid> eids) {
    Csr csr;
    csr.n_ = n;
    csr.m_ = m;
    csr.offsets_view_ = offsets;
    csr.nbrs_view_ = nbrs;
    csr.eids_view_ = eids;
    return csr;
  }

  Csr() = default;
  Csr(const Csr&) = delete;
  Csr& operator=(const Csr&) = delete;
  // Vector moves keep their heap buffers, so views into owned storage
  // survive a move unchanged.
  Csr(Csr&&) = default;
  Csr& operator=(Csr&&) = default;

  vid num_vertices() const { return n_; }
  eid num_edges() const { return m_; }

  /// True when the arrays are borrowed (mmap-backed) rather than owned.
  bool is_borrowed() const { return offsets_.empty() && n_ > 0; }

  eid degree(vid v) const {
    return offsets_view_[v + 1] - offsets_view_[v];
  }

  /// Neighbours of v (one entry per incident edge).
  std::span<const vid> neighbors(vid v) const {
    return nbrs_view_.subspan(offsets_view_[v], degree(v));
  }

  /// Edge indices aligned with neighbors(v).
  std::span<const eid> incident_edges(vid v) const {
    return eids_view_.subspan(offsets_view_[v], degree(v));
  }

  std::span<const eid> offsets() const { return offsets_view_; }
  std::span<const vid> targets() const { return nbrs_view_; }
  std::span<const eid> edge_ids() const { return eids_view_; }

 private:
  vid n_ = 0;
  eid m_ = 0;
  // uvector: every element is written by the builder before any read,
  // so the zero-fill of an ordinary vector resize (an extra pass over
  // ~16m bytes) is skipped.  Empty when the Csr borrows its storage.
  uvector<eid> offsets_;  // n + 1
  uvector<vid> nbrs_;     // 2m
  uvector<eid> eids_;     // 2m
  // The active storage, pointing at the owned arrays or at borrowed
  // memory.  All accessors read these.
  std::span<const eid> offsets_view_;
  std::span<const vid> nbrs_view_;
  std::span<const eid> eids_view_;
};

}  // namespace parbcc
