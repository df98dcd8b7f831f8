// Network resilience audit — the paper's motivating application
// ("finding biconnected components has application in fault-tolerant
// network design").
//
// Generates (or loads) a network topology, reports every single point
// of failure (articulation routers, bridge links), and proposes the
// redundant links that would make the network biconnected, verifying
// the proposal by re-running the analysis.
//
//   ./examples/network_resilience                  # demo topology
//   ./examples/network_resilience topology.txt     # your own edge list

#include <cstdio>
#include <string>

#include "augmentation.hpp"
#include "core/bcc.hpp"
#include "core/block_cut_tree.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace {

parbcc::EdgeList demo_topology() {
  // A few well-connected "sites" joined by thin uplinks: a cactus of
  // rings plus some spurs — realistic enough to have interesting cuts.
  using namespace parbcc;
  EdgeList g = gen::random_cactus(12, 6, /*seed=*/2024);
  const vid base = g.n;
  g.n += 3;  // three stub hosts hanging off one router
  g.add_edge(0, base);
  g.add_edge(0, base + 1);
  g.add_edge(base + 1, base + 2);
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace parbcc;

  EdgeList net = argc > 1 ? io::read_edge_list_file(argv[1]) : demo_topology();
  std::printf("network: %u routers, %u links\n", net.n, net.m());

  BccContext ctx(4);
  Executor& ex = ctx.executor();
  BccOptions options;
  options.algorithm = BccAlgorithm::kAuto;
  const BccResult analysis = biconnected_components(ctx, net, options);

  std::printf("biconnected zones: %u\n", analysis.num_components);

  vid cut_count = 0;
  for (vid v = 0; v < net.n; ++v) cut_count += analysis.is_articulation[v];
  std::printf("single-point-of-failure routers: %u\n", cut_count);
  if (cut_count > 0 && cut_count <= 20) {
    std::printf(" ");
    for (vid v = 0; v < net.n; ++v) {
      if (analysis.is_articulation[v]) std::printf(" R%u", v);
    }
    std::printf("\n");
  }
  std::printf("single-point-of-failure links: %zu\n", analysis.bridges.size());
  if (!analysis.bridges.empty() && analysis.bridges.size() <= 20) {
    std::printf(" ");
    for (const eid e : analysis.bridges) {
      std::printf(" R%u-R%u", net.edges[e].u, net.edges[e].v);
    }
    std::printf("\n");
  }

  const BlockCutTree bct = build_block_cut_tree(
      ex, ctx.workspace(), net, analysis.edge_component,
      analysis.num_components, analysis.is_articulation);
  vid leaves = 0;
  for (vid b = 0; b < bct.num_blocks; ++b) leaves += bct.is_leaf_block(b);
  std::printf("block-cut tree: %u blocks, %u cut nodes, %u leaf blocks\n",
              bct.num_blocks, bct.num_cut_nodes, leaves);

  const auto proposal = biconnectivity_augmentation(ex, net, analysis);
  if (proposal.empty()) {
    std::printf("network is already biconnected: no action needed\n");
    return 0;
  }
  std::printf("proposed redundant links (%zu):\n", proposal.size());
  for (const Edge& e : proposal) {
    std::printf("  add R%u-R%u\n", e.u, e.v);
  }

  // Verify the proposal.
  for (const Edge& e : proposal) net.edges.push_back(e);
  const BccResult after = biconnected_components(ctx, net, options);
  vid cuts_after = 0;
  for (vid v = 0; v < net.n; ++v) cuts_after += after.is_articulation[v];
  std::printf(
      "after augmentation: %u zones, %u cut routers, %zu bridge links\n",
      after.num_components, cuts_after, after.bridges.size());
  return cuts_after == 0 && after.num_components == 1 ? 0 : 1;
}
