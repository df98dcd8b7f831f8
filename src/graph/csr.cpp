#include "graph/csr.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>

#include "sort/radix_sort.hpp"

namespace parbcc {
namespace {

/// Inputs at or below this many arcs (and a comparable vertex count)
/// are built by one thread; the parallel machinery costs more than the
/// work.
constexpr std::size_t kSequentialArcCutoff = std::size_t{1} << 13;

/// Bucket sizing for the scatter builder, tuned empirically: larger
/// buckets amortise the per-bucket cursor reset and keep the stage-1
/// write streams few enough to sit in L1, while the per-bucket window
/// (staged records + final rows) must not fall out of L2 during the
/// counting scatter.  64k arcs/bucket was the minimum over the density
/// sweep on the reference container; the shape is flat within 2^±1.
constexpr std::size_t kTargetArcsPerBucket = std::size_t{1} << 16;

/// Cap on the bucket count so the per-thread histogram matrix and the
/// scatter's open write streams stay inside L2.
constexpr std::size_t kMaxBuckets = std::size_t{1} << 12;

/// Staged arc record: source row, neighbour, originating edge.  Kept
/// as one 12-byte record — splitting into parallel arrays doubles the
/// stage-1 write streams and loses at large bucket counts.
struct Arc {
  vid src;
  vid nbr;
  eid edge;
};

/// Single-threaded cursor scatter; everything fits in cache at the
/// sizes this is used for.
void build_rows_sequential(const EdgeList& g, uvector<eid>& offsets,
                           uvector<vid>& nbrs, uvector<eid>& eids) {
  const std::size_t n = g.n;
  std::fill(offsets.begin(), offsets.end(), eid{0});
  for (const Edge& e : g.edges) {
    ++offsets[e.u + 1];
    ++offsets[e.v + 1];
  }
  for (std::size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  for (std::size_t i = 0; i < g.edges.size(); ++i) {
    const Edge e = g.edges[i];
    eid dst = offsets[e.u]++;
    nbrs[dst] = e.v;
    eids[dst] = static_cast<eid>(i);
    dst = offsets[e.v]++;
    nbrs[dst] = e.u;
    eids[dst] = static_cast<eid>(i);
  }
  // The cursors left offsets[v] holding row v's end, which is row
  // v + 1's start: shift down to restore.
  for (std::size_t v = n; v > 0; --v) offsets[v] = offsets[v - 1];
  offsets[0] = 0;
}

/// Fallback for degenerately sparse inputs (arcs << vertices, i.e.
/// mostly isolated vertices): a stable by-source radix sort whose
/// passes cover only the significant bytes of the largest vertex id,
/// with row boundaries read off the sorted keys afterwards.  Here the
/// scatter builder loses because its per-bucket cursor initialisation
/// touches far more memory than the arcs themselves.
void build_rows_radix(Executor& ex, Workspace& ws, const EdgeList& g,
                      uvector<eid>& offsets, uvector<vid>& nbrs,
                      uvector<eid>& eids) {
  const std::size_t n = g.n;
  const std::size_t m = g.edges.size();
  const std::size_t num_arcs = 2 * m;

  Workspace::Frame frame(ws);
  std::span<std::uint64_t> keys = ws.alloc<std::uint64_t>(num_arcs);
  std::span<std::uint64_t> payload =
      ws.alloc<std::uint64_t>(num_arcs);  // (neighbour << 32) | edge
  ex.parallel_for(m, [&](std::size_t i) {
    const Edge e = g.edges[i];
    keys[2 * i] = e.u;
    payload[2 * i] = (static_cast<std::uint64_t>(e.v) << 32) | i;
    keys[2 * i + 1] = e.v;
    payload[2 * i + 1] = (static_cast<std::uint64_t>(e.u) << 32) | i;
  });
  radix_sort_kv64(ex, ws, keys, payload);

  // offsets[v] = first arc position with source >= v.  Consecutive
  // sorted keys delimit disjoint ranges of row starts, so the fills
  // below never overlap.
  ex.parallel_for(num_arcs, [&](std::size_t s) {
    const vid v = static_cast<vid>(keys[s]);
    if (s == 0) {
      for (vid u = 0; u <= v; ++u) offsets[u] = 0;
      return;
    }
    const vid prev = static_cast<vid>(keys[s - 1]);
    for (vid u = prev; u < v; ++u) offsets[u + 1] = static_cast<eid>(s);
  });
  const vid last = static_cast<vid>(keys[num_arcs - 1]);
  ex.parallel_for(n - last, [&](std::size_t i) {
    offsets[last + 1 + i] = static_cast<eid>(num_arcs);
  });

  ex.parallel_for(num_arcs, [&](std::size_t s) {
    nbrs[s] = static_cast<vid>(payload[s] >> 32);
    eids[s] = static_cast<eid>(payload[s] & 0xffffffffu);
  });
}

/// The main builder: a counting scatter in two sequential-friendly
/// passes, no sort and no per-vertex atomics.
///
///   1. Partition edges into per-thread blocks and vertices into
///      contiguous buckets; count arcs per (thread block, bucket).
///   2. Column-major prefix-sum the histogram matrix, giving every
///      (thread, bucket) pair a disjoint destination range, then each
///      thread streams its arcs into those mostly-sequential ranges,
///      grouping arcs by bucket.
///   3. Per bucket (dynamically scheduled): count local degrees, turn
///      them into global row offsets (bucket arc regions are already
///      globally contiguous and in vertex order), and scatter the
///      bucket's arcs into their final rows.  All writes of one bucket
///      land in one cache-resident window.
///
/// Compared with sorting 2m 64-bit keys this reads the edge list twice
/// and the staged arcs twice (once from cache) instead of paying
/// several full distribution passes plus a final unpack.
void build_rows_scatter(Executor& ex, Workspace& ws, const EdgeList& g,
                        uvector<eid>& offsets, uvector<vid>& nbrs,
                        uvector<eid>& eids) {
  const std::size_t n = g.n;
  const std::size_t m = g.edges.size();
  const std::size_t num_arcs = 2 * m;
  const int p = ex.threads();
  const std::size_t np = static_cast<std::size_t>(p);

  std::size_t num_buckets = std::max(
      (num_arcs + kTargetArcsPerBucket - 1) / kTargetArcsPerBucket, np * 4);
  num_buckets = std::min({num_buckets, kMaxBuckets, n});
  // Power-of-two bucket width: the bucket of a vertex is looked up
  // 4m times below, and a shift beats the integer division a runtime
  // divisor would cost.
  const std::size_t min_width = (n + num_buckets - 1) / num_buckets;
  unsigned bucket_shift = 0;
  while ((std::size_t{1} << bucket_shift) < min_width) ++bucket_shift;
  const std::size_t bucket_width = std::size_t{1} << bucket_shift;
  num_buckets = (n + bucket_width - 1) >> bucket_shift;

  // hist[t * num_buckets + b]: thread t's arc count for bucket b,
  // reused as the scatter cursor after the prefix-sum step.  The
  // staged arc records are the builder's dominant scratch (12 bytes
  // per arc); like the histogram they are workspace memory.
  Workspace::Frame frame(ws);
  std::span<std::size_t> hist = ws.alloc<std::size_t>(np * num_buckets);
  std::span<std::size_t> bucket_start =
      ws.alloc<std::size_t>(num_buckets + 1);
  std::span<Arc> arcs = ws.alloc<Arc>(num_arcs);
  ex.parallel_for(np * num_buckets, [&](std::size_t i) { hist[i] = 0; });

  ex.run([&](int tid) {
    const auto [begin, end] = Executor::block_range(m, p, tid);
    std::size_t* h = hist.data() + static_cast<std::size_t>(tid) * num_buckets;
    for (std::size_t i = begin; i < end; ++i) {
      ++h[g.edges[i].u >> bucket_shift];
      ++h[g.edges[i].v >> bucket_shift];
    }
    ex.barrier().wait();
    if (tid == 0) {
      // Bucket-major, then thread-major: bucket regions come out
      // contiguous and in vertex order.
      std::size_t running = 0;
      for (std::size_t b = 0; b < num_buckets; ++b) {
        bucket_start[b] = running;
        for (std::size_t t = 0; t < np; ++t) {
          const std::size_t c = hist[t * num_buckets + b];
          hist[t * num_buckets + b] = running;
          running += c;
        }
      }
      bucket_start[num_buckets] = running;
    }
    ex.barrier().wait();
    for (std::size_t i = begin; i < end; ++i) {
      const Edge e = g.edges[i];
      const eid id = static_cast<eid>(i);
      std::size_t dst = h[e.u >> bucket_shift]++;
      arcs[dst] = {e.u, e.v, id};
      dst = h[e.v >> bucket_shift]++;
      arcs[dst] = {e.v, e.u, id};
    }
  });

  // Buckets are fine-grained tasks, and a bucket that swallowed a
  // hub's arc mass (buckets are vertex ranges, so one heavy vertex
  // concentrates its whole adjacency here) runs its count and scatter
  // as nested parallel regions over the staged arcs, claiming
  // destinations with atomic cursor bumps.  The cursor is task-local,
  // not per-worker: a worker stealing another bucket while joining a
  // nested region would otherwise re-enter the same scratch mid-phase.
  // Row order becomes schedule dependent, which Csr's contract allows
  // (rows are multisets).  At p = 1 every bucket runs serially, with
  // plain cursor bumps.
  constexpr std::size_t kHeavyBucketArcs = 4 * kTargetArcsPerBucket;
  constexpr std::size_t kInnerGrain = 4096;
  ex.parallel_for(0, num_buckets, 1, [&](std::size_t b) {
    const std::size_t lo = b * bucket_width;
    const std::size_t hi = std::min(lo + bucket_width, n);
    const std::size_t s_begin = bucket_start[b];
    const std::size_t s_end = bucket_start[b + 1];
    std::vector<eid> cursor(hi - lo, eid{0});
    const bool heavy = p > 1 && s_end - s_begin > kHeavyBucketArcs;
    if (heavy) {
      ex.parallel_for(s_begin, s_end, kInnerGrain, [&](std::size_t s) {
        std::atomic_ref(cursor[arcs[s].src - lo])
            .fetch_add(1, std::memory_order_relaxed);
      });
    } else {
      for (std::size_t s = s_begin; s < s_end; ++s) {
        ++cursor[arcs[s].src - lo];
      }
    }
    eid running = static_cast<eid>(s_begin);
    for (std::size_t v = lo; v < hi; ++v) {
      const eid degree = cursor[v - lo];
      offsets[v] = running;
      cursor[v - lo] = running;
      running += degree;
    }
    if (heavy) {
      ex.parallel_for(s_begin, s_end, kInnerGrain, [&](std::size_t s) {
        const Arc a = arcs[s];
        const eid dst = std::atomic_ref(cursor[a.src - lo])
                            .fetch_add(1, std::memory_order_relaxed);
        nbrs[dst] = a.nbr;
        eids[dst] = a.edge;
      });
    } else {
      for (std::size_t s = s_begin; s < s_end; ++s) {
        const Arc a = arcs[s];
        const eid dst = cursor[a.src - lo]++;
        nbrs[dst] = a.nbr;
        eids[dst] = a.edge;
      }
    }
  });
  offsets[n] = static_cast<eid>(num_arcs);
}

}  // namespace

Csr Csr::build(Executor& ex, Workspace& ws, const EdgeList& g) {
  if (!g.validate()) {
    throw std::invalid_argument(
        "Csr::build: edge list has out-of-range endpoints or self-loops");
  }
  Csr csr;
  csr.n_ = g.n;
  csr.m_ = g.m();
  const std::size_t n = g.n;
  const std::size_t m = g.edges.size();
  const std::size_t num_arcs = 2 * m;
  csr.offsets_.resize(n + 1);
  csr.nbrs_.resize(num_arcs);
  csr.eids_.resize(num_arcs);
  csr.offsets_view_ = {csr.offsets_.data(), csr.offsets_.size()};
  csr.nbrs_view_ = {csr.nbrs_.data(), csr.nbrs_.size()};
  csr.eids_view_ = {csr.eids_.data(), csr.eids_.size()};

  if (m == 0) {
    std::fill(csr.offsets_.begin(), csr.offsets_.end(), eid{0});
    return csr;
  }
  if (num_arcs <= kSequentialArcCutoff && n <= 2 * kSequentialArcCutoff) {
    build_rows_sequential(g, csr.offsets_, csr.nbrs_, csr.eids_);
  } else if (num_arcs < n / 4) {
    build_rows_radix(ex, ws, g, csr.offsets_, csr.nbrs_, csr.eids_);
  } else {
    build_rows_scatter(ex, ws, g, csr.offsets_, csr.nbrs_, csr.eids_);
  }
  return csr;
}

}  // namespace parbcc
