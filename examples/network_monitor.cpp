// Live network monitor: links come up in provisioning rounds and the
// operator watches redundancy improve — the serving-layer view of the
// paper's fault-tolerance application.
//
// A synthetic provisioning sequence (random growing network) feeds a
// BccService that starts from the bare routers; each reporting interval's
// links go in as one insertion batch.  After every batch the monitor
// reads the published snapshot, prints the current exposure (blocks,
// cut routers, 2-edge-connected groups), cross-checks it against a
// fresh static solve, and answers a few "does router X separate A from
// B?" what-if queries from the snapshot's query surface.
//
//   ./examples/network_monitor [n] [links] [report_every]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <span>

#include "core/bcc.hpp"
#include "core/bcc_context.hpp"
#include "graph/generators.hpp"
#include "server/service.hpp"
#include "util/rng.hpp"

namespace {

using namespace parbcc;

/// Removing v disconnects a from b exactly when v is a cut vertex on
/// every a-b path, i.e. when v's cut node splits the block-cut-tree
/// path between them: the articulation counts of the two halves plus v
/// itself add up to the whole path's.
bool separates(const server::Snapshot& snap, vid v, vid a, vid b) {
  if (v == a || v == b || a == b || !snap.is_cut(v)) return false;
  const vid whole = snap.path_articulation(a, b);
  const vid to_v = snap.path_articulation(a, v);
  // Once a reaches v, b does too, so the v-b half is finite as well.
  return whole != kNoVertex && to_v != kNoVertex &&
         to_v + 1 + snap.path_articulation(v, b) == whole;
}

}  // namespace

int main(int argc, char** argv) {
  const vid n = argc > 1 ? static_cast<vid>(std::atoll(argv[1])) : 2000;
  const eid links = argc > 2 ? static_cast<eid>(std::atoll(argv[2])) : 4 * n;
  const eid every = std::max<eid>(
      1, argc > 3 ? static_cast<eid>(std::atoll(argv[3])) : links / 8);

  const EdgeList plan = gen::random_connected_gnm(n, links, 42);
  Executor ex(4);
  BccContext ctx(ex);
  server::BccService service(ctx, EdgeList(n, {}));
  BccContext check_ctx(ex);  // the monitor's own recomputes
  Xoshiro256 rng(7);

  std::printf("%10s %10s %12s %12s\n", "links", "blocks", "cut routers",
              "2ec groups");
  const std::span<const Edge> all(plan.edges);
  for (eid done = 0; done < plan.m();) {
    const eid batch = std::min<eid>(every, plan.m() - done);
    service.apply_batch(all.subspan(done, batch), {});
    done += batch;

    const auto snap = service.snapshot();
    std::printf("%10u %10u %12u %12u\n", snap->m(), snap->num_blocks(),
                snap->num_cut_vertices(), snap->num_two_edge_components());

    // Cross-check the published epoch against a fresh recompute of the
    // links provisioned so far.
    const EdgeList current(n, {plan.edges.begin(), plan.edges.begin() + done});
    const BccResult fresh = biconnected_components(check_ctx, current);
    vid fresh_cuts = 0;
    for (const auto a : fresh.is_articulation) fresh_cuts += a;
    if (fresh.num_components != snap->num_blocks() ||
        fresh_cuts != snap->num_cut_vertices()) {
      std::printf("MONITOR BUG: fresh solve disagrees with the snapshot\n");
      return 1;
    }

    int separations = 0;
    for (int q = 0; q < 32; ++q) {
      const vid v = static_cast<vid>(rng.below(n));
      const vid a = static_cast<vid>(rng.below(n));
      const vid b = static_cast<vid>(rng.below(n));
      separations += separates(*snap, v, a, b) ? 1 : 0;
    }
    std::printf("%10s what-if probes: %d/32 router failures would cut a "
                "sampled pair\n", "", separations);
  }

  const auto last = service.snapshot();
  std::printf("\nfinal posture: %u blocks, %u cut routers, %u 2ec groups\n",
              last->num_blocks(), last->num_cut_vertices(),
              last->num_two_edge_components());
  return 0;
}
