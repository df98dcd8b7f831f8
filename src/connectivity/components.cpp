#include "connectivity/components.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "connectivity/concurrent_union_find.hpp"

namespace parbcc {

void connected_components(Executor& ex, Workspace& /*ws*/, vid n,
                          std::span<const Edge> edges, std::span<vid> label) {
  const std::span<vid> parent = label.first(n);
  const ConcurrentUnionFind uf(parent);
  ConcurrentUnionFind::init(ex, parent);
  ex.parallel_for(edges.size(), [&](std::size_t i) {
    std::uint64_t steps = 0;
    uf.unite(edges[i].u, edges[i].v, steps);
  });
  uf.flatten(ex);
}

vid normalize_labels(std::span<vid> labels) {
  vid domain = 0;
  for (const vid l : labels) domain = std::max(domain, l + 1);
  std::vector<vid> remap(domain, kNoVertex);
  vid next = 0;
  for (auto& l : labels) {
    if (remap[l] == kNoVertex) remap[l] = next++;
    l = remap[l];
  }
  return next;
}

}  // namespace parbcc
