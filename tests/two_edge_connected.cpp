#include "two_edge_connected.hpp"

#include <stdexcept>

#include "connectivity/components.hpp"
#include "scan/compact.hpp"
#include "test_util.hpp"

namespace parbcc {

TwoEdgeConnected two_edge_connected_components(Executor& ex,
                                               const EdgeList& g,
                                               const BccResult& result) {
  if (result.edge_component.size() != g.edges.size()) {
    throw std::invalid_argument(
        "two_edge_connected_components: result does not match graph");
  }
  if (result.is_articulation.size() != g.n && g.m() > 0) {
    throw std::invalid_argument(
        "two_edge_connected_components: result lacks cut info");
  }
  TwoEdgeConnected out;
  out.bridges = result.bridges;

  // Mark bridges, then one connectivity pass over the surviving edges.
  std::vector<std::uint8_t> is_bridge(g.m(), 0);
  ex.parallel_for(out.bridges.size(), [&](std::size_t k) {
    is_bridge[out.bridges[k]] = 1;
  });
  Workspace ws;
  std::vector<eid> survivors;
  pack_indices(ex, ws, g.m(),
               [&](std::size_t e) { return is_bridge[e] == 0; }, survivors);

  std::vector<Edge> kept;
  kept.reserve(survivors.size());
  for (const eid e : survivors) kept.push_back(g.edges[e]);
  out.vertex_component.resize(g.n);
  connected_components(ex, ws, g.n, kept, out.vertex_component);
  out.num_components = normalize_labels(out.vertex_component);
  return out;
}

TwoEdgeConnected two_edge_connected_components(Executor& ex,
                                               const EdgeList& g) {
  BccOptions opt;
  opt.algorithm = BccAlgorithm::kAuto;
  opt.threads = ex.threads();
  opt.compute_cut_info = true;
  const BccResult result = testutil::solve(ex, g, opt);
  return two_edge_connected_components(ex, g, result);
}

}  // namespace parbcc
