// Component atlas: load or generate a graph, compute its biconnected
// components, and print a per-component atlas (sizes, membership
// histogram, largest blocks) plus a serialized copy of the input —
// a small end-to-end tour of the graph I/O and analysis API.
//
//   ./examples/component_atlas                 # random demo graph
//   ./examples/component_atlas graph.txt       # your edge list
//   ./examples/component_atlas graph.txt out.txt  # ...and re-save it

#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "core/bcc.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"

int main(int argc, char** argv) {
  using namespace parbcc;

  const EdgeList g = argc > 1 ? io::read_edge_list_file(argv[1])
                              : gen::random_connected_gnm(5000, 9000, 99);
  std::printf("graph: %u vertices, %u edges\n", g.n, g.m());

  BccContext ctx(/*threads=*/4);
  BccOptions options;
  options.algorithm = BccAlgorithm::kAuto;
  const BccResult r = biconnected_components(ctx, g, options);

  // Edge count per component.
  std::vector<eid> size(r.num_components, 0);
  for (const vid c : r.edge_component) ++size[c];

  // Histogram of component sizes.
  std::map<eid, vid> histogram;
  for (const eid s : size) ++histogram[s];

  std::printf("biconnected components: %u\n", r.num_components);
  std::printf("bridges: %zu\n", r.bridges.size());
  vid cuts = 0;
  for (const auto a : r.is_articulation) cuts += a;
  std::printf("articulation points: %u\n", cuts);

  std::printf("\ncomponent size histogram (edges -> count):\n");
  for (const auto& [edges, count] : histogram) {
    std::printf("  %8u edges : %u component%s\n", edges, count,
                count == 1 ? "" : "s");
  }

  // Top five largest blocks.
  std::vector<vid> order(r.num_components);
  for (vid c = 0; c < r.num_components; ++c) order[c] = c;
  std::sort(order.begin(), order.end(),
            [&](vid a, vid b) { return size[a] > size[b]; });
  std::printf("\nlargest components:\n");
  for (vid k = 0; k < std::min<vid>(5, r.num_components); ++k) {
    std::printf("  component %u: %u edges\n", order[k], size[order[k]]);
  }

  if (argc > 2) {
    io::write_edge_list_file(argv[2], g);
    std::printf("\nwrote a copy of the input to %s\n", argv[2]);
  }
  return 0;
}
