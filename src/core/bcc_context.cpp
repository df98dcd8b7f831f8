#include "core/bcc_context.hpp"

#include <algorithm>
#include <atomic>

#include "scan/compact.hpp"

namespace parbcc {
namespace {

/// splitmix64's finalizer.
std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Order-dependent content hash of an edge list: the wrapping sum over
/// edges of mix(u, v, edge index), so it is the same at every p and
/// still changes when two edges swap places.  (address, n, m) alone is
/// not a safe cache key: a destroyed graph's address can be reused by
/// a different graph of the same size, and an (n, m) collision then
/// serves a stale adjacency for the wrong input.  The fingerprint
/// closes that hole (and catches in-place edge edits) for one parallel
/// O(m) read — noise next to the conversion it guards.
std::uint64_t fingerprint(Executor& ex, const EdgeList& g) {
  constexpr std::size_t kChunk = 4096;
  const std::size_t m = g.m();
  std::atomic<std::uint64_t> sum{0};
  ex.parallel_for(0, (m + kChunk - 1) / kChunk, 1, [&](std::size_t c) {
    const std::size_t end = std::min(m, (c + 1) * kChunk);
    std::uint64_t h = 0;
    for (std::size_t e = c * kChunk; e < end; ++e) {
      const std::uint64_t x =
          (std::uint64_t{g.edges[e].u} << 32) | g.edges[e].v;
      h += mix(x + e * 0x9e3779b97f4a7c15ull);
    }
    sum.fetch_add(h, std::memory_order_relaxed);
  });
  return mix((std::uint64_t{g.n} << 32) | m) + sum.load();
}

}  // namespace

const PreparedGraph& BccContext::prepare(const EdgeList& g) {
  const std::uint64_t fp = fingerprint(*ex_, g);
  if (cache_ && cached_graph_ == &g && cached_fp_ == fp) {
    // Repeat solve of the same graph: the conversion was already paid
    // (and charged) by the build below; report it as free from now on.
    cache_->waive_conversion_charge();
    return *cache_;
  }
  cache_.reset();
  cache_.emplace(*ex_, ws_, g);
  cached_graph_ = &g;
  cached_fp_ = fp;
  return *cache_;
}

const PreparedGraph& BccContext::adopt(io::MappedGraph&& mapped) {
  // Drop the old cache entry before its backing mapping: the entry's
  // views point into the mapped bytes.
  cache_.reset();
  cached_graph_ = nullptr;
  mapped_.reset();
  mapped_.emplace(std::move(mapped));
  cache_.emplace(mapped_->graph(), mapped_->csr());
  // Key the cache like prepare() would, so solving the mapped graph
  // through the ordinary dispatcher is a hit (the fingerprint pass
  // also warms the edges section).
  cached_graph_ = &mapped_->graph();
  cached_fp_ = fingerprint(*ex_, mapped_->graph());
  return *cache_;
}

namespace io {

const PreparedGraph& map_prepared_graph(BccContext& ctx,
                                        const std::string& path,
                                        const MapOptions& opt) {
  return ctx.adopt(MappedGraph::map(path, opt));
}

}  // namespace io

const BccContext::StrippedGraph& BccContext::strip(const EdgeList& g) {
  const std::uint64_t fp = fingerprint(*ex_, g);
  if (strip_ && strip_source_ == &g && strip_fp_ == fp) {
    return *strip_;
  }
  // The storage is rebuilt in place (same address), so a conversion
  // cache keyed on the old stripped graph could serve a stale CSR if
  // the new one happened to match on (n, m); drop it first.
  if (strip_ && cached_graph_ == &strip_->graph) {
    cache_.reset();
    cached_graph_ = nullptr;
  }
  strip_.emplace();
  StrippedGraph& s = *strip_;
  const eid m = g.m();
  pack_indices(*ex_, ws_, m,
               [&](std::size_t e) { return g.edges[e].u != g.edges[e].v; },
               s.kept);
  pack_indices(*ex_, ws_, m,
               [&](std::size_t e) { return g.edges[e].u == g.edges[e].v; },
               s.loops);
  s.loops.shrink_to_fit();  // pack_indices sized it for m
  s.graph.n = g.n;
  s.graph.edges.resize(s.kept.size());
  Edge* out = s.graph.edges.data();
  ex_->parallel_for(s.kept.size(),
                    [&](std::size_t j) { out[j] = g.edges[s.kept[j]]; });
  strip_source_ = &g;
  strip_fp_ = fp;
  return *strip_;
}

}  // namespace parbcc
