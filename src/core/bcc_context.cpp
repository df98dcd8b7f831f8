#include "core/bcc_context.hpp"

namespace parbcc {
namespace {

/// Order-dependent content hash of an edge list.  (address, n, m)
/// alone is not a safe cache key: a destroyed graph's address can be
/// reused by a different graph of the same size, and an (n, m)
/// collision then serves a stale adjacency for the wrong input.  The
/// fingerprint closes that hole (and catches in-place edge edits) for
/// one O(m) scan — noise next to the conversion it guards.
std::uint64_t fingerprint(const EdgeList& g) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull ^
                    ((std::uint64_t{g.n} << 32) | g.m());
  for (const Edge& e : g.edges) {
    std::uint64_t x = (std::uint64_t{e.u} << 32) | e.v;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 31;
    h = (h ^ x) * 0x94d049bb133111ebull;
  }
  return h;
}

}  // namespace

const PreparedGraph& BccContext::prepare(const EdgeList& g) {
  const std::uint64_t fp = fingerprint(g);
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
  cached_fp_ = fingerprint(mapped_->graph());
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
  const std::uint64_t fp = fingerprint(g);
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
  strip_->graph = remove_self_loops(g, &strip_->kept);
  strip_source_ = &g;
  strip_fp_ = fp;
  return *strip_;
}

}  // namespace parbcc
