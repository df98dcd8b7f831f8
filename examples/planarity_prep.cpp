// Planarity preprocessing pipeline — the application path the paper
// names in its introduction ("finding biconnected components ... is
// also used in graph planarity testing").  Classic planarity testers
// (Lempel-Even-Cederbaum with PQ-trees) want their input biconnected
// and st-numbered; ear decompositions drive the related open-ear /
// st-orientation route.
//
// This example runs that front end: take a graph, split it into
// biconnected components, and for each nontrivial block produce an
// st-numbering and an ear decomposition, verifying both certificates.
//
//   ./examples/planarity_prep [n m seed]

#include <cstdio>
#include <cstdlib>
#include <map>

#include "core/bcc.hpp"
#include "ear_decomposition.hpp"
#include "graph/generators.hpp"
#include "st_numbering.hpp"

int main(int argc, char** argv) {
  using namespace parbcc;

  const vid n = argc > 1 ? static_cast<vid>(std::atoll(argv[1])) : 3000;
  const eid m = argc > 2 ? static_cast<eid>(std::atoll(argv[2])) : 4 * n;
  const std::uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 17;

  const EdgeList g = gen::random_connected_gnm(n, m, seed);
  std::printf("input: n=%u m=%u\n", g.n, g.m());

  BccContext ctx(4);
  Executor& ex = ctx.executor();
  BccOptions opt;
  opt.algorithm = BccAlgorithm::kAuto;
  const BccResult bcc = biconnected_components(ctx, g, opt);
  std::printf("blocks: %u, bridges: %zu\n", bcc.num_components,
              bcc.bridges.size());

  // Extract each block with >= 3 vertices as its own graph.
  std::vector<std::vector<eid>> block_edges(bcc.num_components);
  for (eid e = 0; e < g.m(); ++e) {
    block_edges[bcc.edge_component[e]].push_back(e);
  }

  vid processed = 0, ears_total = 0;
  for (vid b = 0; b < bcc.num_components; ++b) {
    if (block_edges[b].size() < 3) continue;  // bridges & tiny blocks
    std::map<vid, vid> local;
    EdgeList sub;
    for (const eid e : block_edges[b]) {
      for (const vid v : {g.edges[e].u, g.edges[e].v}) {
        local.emplace(v, static_cast<vid>(local.size()));
      }
    }
    sub.n = static_cast<vid>(local.size());
    for (const eid e : block_edges[b]) {
      sub.edges.push_back({local[g.edges[e].u], local[g.edges[e].v]});
    }

    // st-numbering on the block's first edge.
    const vid s = sub.edges[0].u;
    const vid t = sub.edges[0].v;
    const StNumbering st = st_number(sub, s, t);
    if (!is_valid_st_numbering(sub, s, t, st)) {
      std::printf("block %u: INVALID st-numbering\n", b);
      return 1;
    }
    // Ear decomposition of the same block.
    const EarDecomposition ears = ear_decomposition(ex, sub);
    if (!is_ear_decomposition(sub, ears)) {
      std::printf("block %u: INVALID ear decomposition\n", b);
      return 1;
    }
    ears_total += ears.num_ears;
    ++processed;
  }
  std::printf(
      "prepared %u nontrivial blocks for planarity testing "
      "(%u ears total); all certificates verified\n",
      processed, ears_total);
  return 0;
}
