// Quickstart: build a small graph, find its biconnected components,
// articulation points and bridges with the public API.
//
//   ./examples/quickstart
//
// The graph is the classic "two triangles joined by a bridge":
//
//     0        4
//    / \      / \.
//   1---2 -- 3---5      (edge 2-3 is the bridge; 2 and 3 articulate)

#include <cstdio>

#include "core/bcc.hpp"

int main() {
  using namespace parbcc;

  EdgeList graph(6, {
                        {0, 1},  // triangle one
                        {1, 2},
                        {2, 0},
                        {2, 3},  // the bridge
                        {3, 4},  // triangle two
                        {4, 5},
                        {5, 3},
                    });

  BccContext ctx(/*threads=*/4);  // thread pool + scratch arena, reusable
  BccOptions options;
  options.algorithm = BccAlgorithm::kAuto;  // HT if small, else FastBCC

  const BccResult result = biconnected_components(ctx, graph, options);

  std::printf("vertices: %u, edges: %u\n", graph.n, graph.m());
  std::printf("biconnected components: %u\n", result.num_components);

  for (eid e = 0; e < graph.m(); ++e) {
    std::printf("  edge %u = (%u,%u)  -> component %u\n", e, graph.edges[e].u,
                graph.edges[e].v, result.edge_component[e]);
  }

  std::printf("articulation points:");
  for (vid v = 0; v < graph.n; ++v) {
    if (result.is_articulation[v]) std::printf(" %u", v);
  }
  std::printf("\nbridges:");
  for (const eid e : result.bridges) {
    std::printf(" (%u,%u)", graph.edges[e].u, graph.edges[e].v);
  }
  std::printf("\n");
  return 0;
}
