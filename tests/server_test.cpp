#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <span>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/bcc.hpp"
#include "core/bcc_context.hpp"
#include "graph/generators.hpp"
#include "graph/text_parse.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "server/service.hpp"
#include "server/snapshot.hpp"
#include "test_util.hpp"
#include "two_edge_connected.hpp"
#include "util/rng.hpp"

namespace parbcc {
namespace {

using server::BccClient;
using server::BccServer;
using server::BccService;
using server::InfoReply;
using server::Op;
using server::ProtocolError;
using server::Query;
using server::QueryReply;
using server::Snapshot;

Snapshot make_snapshot(BccContext& ctx, const EdgeList& g,
                       std::uint64_t version = 0) {
  BccOptions opt;
  opt.compute_cut_info = true;
  const BccResult result = biconnected_components(ctx, g, opt);
  return Snapshot(ctx.executor(), g, result, version);
}

// --- Brute-force oracles, deliberately naive (small n only). ---

/// u and v share a block iff some edge label is incident to both.
bool oracle_same_block(const EdgeList& g, const testutil::RefBcc& ref, vid u,
                       vid v) {
  std::set<vid> labels_u, labels_v;
  for (std::size_t e = 0; e < g.edges.size(); ++e) {
    if (g.edges[e].u == u || g.edges[e].v == u) labels_u.insert(ref.edge_comp[e]);
    if (g.edges[e].u == v || g.edges[e].v == v) labels_v.insert(ref.edge_comp[e]);
  }
  for (const vid l : labels_u) {
    if (labels_v.count(l)) return true;
  }
  return false;
}

/// BFS connectivity of u and v with vertex `skip` removed (kNoVertex
/// skips nothing); the per-removal loop makes this the
/// path-articulation oracle.
bool connected_avoiding(const EdgeList& g, vid u, vid v, vid skip) {
  if (u == skip || v == skip) return false;
  std::vector<std::vector<vid>> adj(g.n);
  for (const Edge& e : g.edges) {
    if (e.u == skip || e.v == skip) continue;
    adj[e.u].push_back(e.v);
    adj[e.v].push_back(e.u);
  }
  std::vector<std::uint8_t> seen(g.n, 0);
  std::vector<vid> queue{u};
  seen[u] = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (const vid w : adj[queue[head]]) {
      if (!seen[w]) {
        seen[w] = 1;
        queue.push_back(w);
      }
    }
  }
  return seen[v] != 0;
}

vid oracle_path_articulation(const EdgeList& g, vid u, vid v) {
  if (u == v) return 0;
  if (!connected_avoiding(g, u, v, kNoVertex)) return kNoVertex;
  vid count = 0;
  for (vid w = 0; w < g.n; ++w) {
    if (w == u || w == v) continue;
    if (!connected_avoiding(g, u, v, w)) ++count;
  }
  return count;
}

/// 2EC labels: connected components after deleting every bridge.
std::vector<vid> oracle_two_ec(const EdgeList& g) {
  const std::vector<eid> bridges = testutil::brute_force_bridges(g);
  std::vector<std::uint8_t> is_bridge(g.edges.size(), 0);
  for (const eid b : bridges) is_bridge[b] = 1;
  EdgeList rest(g.n, {});
  for (std::size_t e = 0; e < g.edges.size(); ++e) {
    if (!is_bridge[e]) rest.edges.push_back(g.edges[e]);
  }
  std::vector<std::vector<vid>> adj(g.n);
  for (const Edge& e : rest.edges) {
    adj[e.u].push_back(e.v);
    adj[e.v].push_back(e.u);
  }
  std::vector<vid> label(g.n, kNoVertex);
  vid next = 0;
  for (vid s = 0; s < g.n; ++s) {
    if (label[s] != kNoVertex) continue;
    label[s] = next;
    std::vector<vid> queue{s};
    for (std::size_t head = 0; head < queue.size(); ++head) {
      for (const vid w : adj[queue[head]]) {
        if (label[w] == kNoVertex) {
          label[w] = next;
          queue.push_back(w);
        }
      }
    }
    ++next;
  }
  return label;
}

void expect_matches_oracles(BccContext& ctx, const EdgeList& g) {
  const Snapshot snap = make_snapshot(ctx, g);
  const testutil::RefBcc ref = testutil::reference_bcc(g);
  const std::vector<std::uint8_t> cuts = testutil::brute_force_articulation(g);
  const std::vector<vid> two_ec = oracle_two_ec(g);

  ASSERT_EQ(snap.num_blocks(), ref.count);
  std::vector<vid> got(g.edges.size()), want = ref.edge_comp;
  for (eid e = 0; e < g.m(); ++e) got[e] = snap.block_id(e);
  EXPECT_TRUE(testutil::same_partition(got, want));

  for (vid v = 0; v < g.n; ++v) {
    EXPECT_EQ(snap.is_cut(v), cuts[v] != 0) << "vertex " << v;
  }
  for (vid u = 0; u < g.n; ++u) {
    for (vid v = u; v < g.n; ++v) {
      EXPECT_EQ(snap.same_block(u, v), oracle_same_block(g, ref, u, v))
          << "same_block(" << u << ", " << v << ")";
      EXPECT_EQ(snap.same_block(v, u), snap.same_block(u, v));
      EXPECT_EQ(snap.same_two_edge(u, v), two_ec[u] == two_ec[v])
          << "same_two_edge(" << u << ", " << v << ")";
    }
  }
}

void expect_path_articulation_matches(BccContext& ctx, const EdgeList& g) {
  const Snapshot snap = make_snapshot(ctx, g);
  for (vid u = 0; u < g.n; ++u) {
    for (vid v = u; v < g.n; ++v) {
      EXPECT_EQ(snap.path_articulation(u, v), oracle_path_articulation(g, u, v))
          << "path_articulation(" << u << ", " << v << ")";
    }
  }
}

TEST(Snapshot, HandCheckedBowtie) {
  // Two triangles sharing vertex 2 (the only cut vertex, two blocks).
  const EdgeList g(5, {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 2}});
  BccContext ctx(2);
  const Snapshot snap = make_snapshot(ctx, g, 7);

  EXPECT_EQ(snap.version(), 7u);
  EXPECT_EQ(snap.n(), 5u);
  EXPECT_EQ(snap.m(), 6u);
  EXPECT_EQ(snap.num_blocks(), 2u);
  EXPECT_EQ(snap.num_cut_vertices(), 1u);
  EXPECT_EQ(snap.num_two_edge_components(), 1u);

  EXPECT_TRUE(snap.is_cut(2));
  EXPECT_FALSE(snap.is_cut(0));
  EXPECT_TRUE(snap.same_block(0, 1));
  EXPECT_TRUE(snap.same_block(0, 2));
  EXPECT_TRUE(snap.same_block(2, 4));
  EXPECT_FALSE(snap.same_block(0, 3));
  EXPECT_EQ(snap.block_id(0), snap.block_id(1));
  EXPECT_EQ(snap.block_id(0), snap.block_id(2));
  EXPECT_NE(snap.block_id(0), snap.block_id(3));
  EXPECT_EQ(snap.path_articulation(0, 1), 0u);
  EXPECT_EQ(snap.path_articulation(0, 3), 1u);
  EXPECT_EQ(snap.path_articulation(0, 2), 0u);  // endpoint cut not counted
  EXPECT_TRUE(snap.same_two_edge(0, 4));
}

TEST(Snapshot, HandCheckedBridgesAndIsolation) {
  // Path 0-1-2 (both edges bridges) plus isolated vertex 3.
  const EdgeList g(4, {{0, 1}, {1, 2}});
  BccContext ctx(1);
  const Snapshot snap = make_snapshot(ctx, g);

  EXPECT_EQ(snap.num_blocks(), 2u);
  EXPECT_TRUE(snap.is_cut(1));
  EXPECT_FALSE(snap.same_block(0, 2));
  EXPECT_EQ(snap.path_articulation(0, 2), 1u);
  EXPECT_EQ(snap.path_articulation(0, 3), kNoVertex);  // disconnected
  EXPECT_EQ(snap.path_articulation(3, 3), 0u);
  EXPECT_FALSE(snap.same_block(3, 3));  // no incident edge, no block
  EXPECT_TRUE(snap.same_block(0, 0));
  EXPECT_FALSE(snap.same_two_edge(0, 1));  // bridge separates 2ec
  EXPECT_EQ(snap.num_two_edge_components(), 4u);

  // Out-of-range ids degrade to "no", never UB.
  EXPECT_FALSE(snap.is_cut(99));
  EXPECT_FALSE(snap.same_block(0, 99));
  EXPECT_EQ(snap.block_id(77), kNoVertex);
  EXPECT_EQ(snap.path_articulation(99, 0), kNoVertex);
  EXPECT_FALSE(snap.same_two_edge(99, 99));
}

TEST(Snapshot, MatchesBruteForceOnStructuredShapes) {
  BccContext ctx(4);
  expect_matches_oracles(ctx, gen::clique_chain(4, 4));
  expect_matches_oracles(ctx, gen::star(9));
  expect_matches_oracles(ctx, gen::barbell(4, 3));
  expect_matches_oracles(ctx, gen::binary_tree(15));
  expect_matches_oracles(ctx, EdgeList(3, {{0, 1}, {0, 1}, {1, 2}}));
}

TEST(Snapshot, MatchesBruteForceOnRandomGraphs) {
  BccContext ctx(4);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    expect_matches_oracles(ctx, gen::random_gnm(60, 90, seed));
    expect_matches_oracles(ctx, gen::random_cactus(10, 5, seed));
  }
}

TEST(Snapshot, PathArticulationMatchesRemovalOracle) {
  BccContext ctx(4);
  expect_path_articulation_matches(ctx, gen::clique_chain(5, 3));
  expect_path_articulation_matches(ctx, gen::binary_tree(20));
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    expect_path_articulation_matches(ctx, gen::random_gnm(40, 55, seed));
  }
}

/// Snapshot 2ECC against two_edge_connected_components (bridge deletion
/// plus a connectivity pass), as partitions: every oracle class must lie
/// inside one snapshot class, and with equal class counts that makes the
/// partitions equal.  No brute force, so it scales past oracle_two_ec.
void expect_two_edge_matches_connectivity(BccContext& ctx, const EdgeList& g) {
  BccOptions opt;
  opt.compute_cut_info = true;
  const BccResult result = biconnected_components(ctx, g, opt);
  const Snapshot snap(ctx.executor(), g, result, 0);
  const TwoEdgeConnected tec =
      two_edge_connected_components(ctx.executor(), g, result);
  ASSERT_EQ(snap.num_two_edge_components(), tec.num_components);
  std::vector<vid> first(tec.num_components, kNoVertex);
  for (vid v = 0; v < g.n; ++v) {
    vid& rep = first[tec.vertex_component[v]];
    if (rep == kNoVertex) rep = v;
    ASSERT_TRUE(snap.same_two_edge(v, rep)) << "vertex " << v;
  }
  for (eid e = 0; e < g.m(); ++e) {
    const vid u = g.edges[e].u;
    const vid v = g.edges[e].v;
    EXPECT_EQ(snap.same_two_edge(u, v),
              tec.vertex_component[u] == tec.vertex_component[v])
        << "edge " << e;
  }
}

TEST(Snapshot, TwoEdgeMatchesConnectivityOnFixtures) {
  BccContext ctx(4);
  for (const char* name : {"clique-chain", "road-grid", "social-comm",
                           "web-pa"}) {
    SCOPED_TRACE(name);
    const EdgeList g = io::read_text_graph(
        ctx.executor(),
        std::string(PARBCC_TEST_DATA_DIR) + "/" + name + ".txt");
    expect_two_edge_matches_connectivity(ctx, g);
  }
}

/// `cycles` cycles of `len` vertices, consecutive ones joined by a
/// bridge, with a pendant path of `tail` vertices off every cycle.
EdgeList bridge_chain(vid cycles, vid len, vid tail) {
  EdgeList g((len + tail) * cycles, {});
  for (vid c = 0; c < cycles; ++c) {
    const vid base = c * (len + tail);
    for (vid i = 0; i < len; ++i) {
      g.edges.push_back({base + i, base + (i + 1) % len});
    }
    for (vid i = 0; i < tail; ++i) {
      g.edges.push_back({base + (i == 0 ? 1 : len + i - 1), base + len + i});
    }
    if (c + 1 < cycles) g.edges.push_back({base, base + len + tail});
  }
  return g;
}

/// Double every `stride`-th edge: a doubled bridge stops being one.
EdgeList with_parallel_edges(EdgeList g, eid stride) {
  const eid m = g.m();
  for (eid e = 0; e < m; e += stride) g.edges.push_back(g.edges[e]);
  return g;
}

TEST(Snapshot, TwoEdgeMatchesConnectivityOnBridgeFamilies) {
  BccContext ctx(4);
  expect_two_edge_matches_connectivity(ctx, gen::path(2000));
  expect_two_edge_matches_connectivity(ctx, gen::binary_tree(3000));
  expect_two_edge_matches_connectivity(ctx, gen::barbell(8, 300));
  expect_two_edge_matches_connectivity(ctx, bridge_chain(200, 6, 4));
  expect_two_edge_matches_connectivity(
      ctx, with_parallel_edges(bridge_chain(150, 5, 3), 3));
  expect_two_edge_matches_connectivity(
      ctx, with_parallel_edges(gen::binary_tree(1000), 2));
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    expect_two_edge_matches_connectivity(
        ctx, gen::random_connected_gnm(5000, 6250, seed));
    expect_two_edge_matches_connectivity(
        ctx, with_parallel_edges(gen::random_connected_gnm(3000, 3600, seed),
                                 7));
  }
  // Isolated vertices beside the blocks.
  expect_two_edge_matches_connectivity(
      ctx, EdgeList(8, {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {5, 6}}));
}

TEST(Service, PublishesEpochsInOrder) {
  BccContext ctx(2);
  BccService svc(ctx, gen::cycle(6));
  EXPECT_EQ(svc.version(), 0u);
  EXPECT_EQ(svc.snapshot()->num_blocks(), 1u);

  const Edge chord{0, 3};
  EXPECT_EQ(svc.apply_batch({&chord, 1}, {}), 1u);
  EXPECT_EQ(svc.version(), 1u);
  EXPECT_EQ(svc.snapshot()->m(), 7u);
  EXPECT_GT(svc.last_publish_seconds(), 0.0);

  const eid victim = 0;
  EXPECT_EQ(svc.apply_batch({}, {&victim, 1}), 2u);
  EXPECT_EQ(svc.snapshot()->m(), 6u);

  // A rejected batch publishes nothing.
  const Edge loop{1, 1};
  EXPECT_THROW(svc.apply_batch({&loop, 1}, {}), std::invalid_argument);
  EXPECT_EQ(svc.version(), 2u);
}

TEST(Service, OldEpochSurvivesRenormalizingBatches) {
  // renorm_label_limit = 1 forces the renormalization on every batch,
  // which rewrites the engine's labels in place: if a snapshot shared
  // that storage, the retained epoch's answers would shift under us.
  BccContext ctx(2);
  BatchDynamicOptions opt;
  opt.renorm_label_limit = 1;
  const EdgeList base = gen::random_connected_gnm(80, 160, 11);
  BccService svc(ctx, base, opt);

  const std::shared_ptr<const Snapshot> old = svc.snapshot();
  std::vector<vid> before_labels(old->m());
  for (eid e = 0; e < old->m(); ++e) before_labels[e] = old->block_id(e);
  std::vector<std::uint8_t> before_cuts(old->n());
  for (vid v = 0; v < old->n(); ++v) before_cuts[v] = old->is_cut(v);

  Xoshiro256 rng(11);
  for (int round = 0; round < 6; ++round) {
    std::vector<Edge> ins;
    for (int i = 0; i < 4; ++i) {
      const vid u = static_cast<vid>(rng() % 80);
      ins.push_back({u, static_cast<vid>((u + 1 + rng() % 78) % 80)});
    }
    const eid del = static_cast<eid>(rng() % svc.snapshot()->m());
    svc.apply_batch(ins, {&del, 1});
  }

  EXPECT_EQ(svc.version(), 6u);
  EXPECT_EQ(old->version(), 0u);
  EXPECT_EQ(old->m(), base.m());
  for (eid e = 0; e < old->m(); ++e) {
    ASSERT_EQ(old->block_id(e), before_labels[e]) << "edge " << e;
  }
  for (vid v = 0; v < old->n(); ++v) {
    ASSERT_EQ(old->is_cut(v), before_cuts[v] != 0) << "vertex " << v;
  }
}

TEST(Service, SnapshotMatchesStaticSolveAfterChurn) {
  BccContext ctx(4);
  BccService svc(ctx, gen::random_connected_gnm(150, 320, 3));
  Xoshiro256 rng(3);
  for (int round = 0; round < 5; ++round) {
    std::vector<Edge> ins;
    for (int i = 0; i < 6; ++i) {
      const vid u = static_cast<vid>(rng() % 150);
      ins.push_back({u, static_cast<vid>((u + 1 + rng() % 148) % 150)});
    }
    const eid del = static_cast<eid>(rng() % svc.snapshot()->m());
    svc.apply_batch(ins, {&del, 1});
  }

  const std::shared_ptr<const Snapshot> snap = svc.snapshot();
  const EdgeList& g = svc.engine().graph();
  const Snapshot fresh = make_snapshot(ctx, g, snap->version());
  ASSERT_EQ(snap->num_blocks(), fresh.num_blocks());
  ASSERT_EQ(snap->num_cut_vertices(), fresh.num_cut_vertices());
  std::vector<vid> got(g.m()), want(g.m());
  for (eid e = 0; e < g.m(); ++e) {
    got[e] = snap->block_id(e);
    want[e] = fresh.block_id(e);
  }
  EXPECT_TRUE(testutil::same_partition(got, want));
  for (vid v = 0; v < g.n; ++v) {
    ASSERT_EQ(snap->is_cut(v), fresh.is_cut(v));
  }
}

TEST(Service, BatchKeepsAdoptedMappingAlive) {
  // Regression: apply_batch drops the context's conversion caches, and
  // that used to unmap the adopted .pbg too, leaving every reference
  // taken from ctx.mapped_graph() dangling after the first batch.
  BccContext ctx(4);
  io::map_prepared_graph(ctx,
                         std::string(PARBCC_TEST_DATA_DIR) + "/road-grid.pbg");
  const EdgeList* mapped = ctx.mapped_graph();
  ASSERT_NE(mapped, nullptr);
  const std::vector<Edge> before(mapped->edges.begin(), mapped->edges.end());
  const BccResult solved = biconnected_components(ctx, *mapped);

  BccService svc(ctx, *mapped);
  const Edge chord{0, mapped->n - 1};
  const eid victim = 0;
  svc.apply_batch({&chord, 1}, {&victim, 1});
  svc.apply_batch({}, {&victim, 1});

  ASSERT_EQ(ctx.mapped_graph(), mapped);
  ASSERT_TRUE(mapped->edges.is_borrowed());
  ASSERT_TRUE(std::equal(before.begin(), before.end(), mapped->edges.begin(),
                         mapped->edges.end()));
  const BccResult again = biconnected_components(ctx, *mapped);
  EXPECT_TRUE(testutil::same_partition(solved.edge_component,
                                       again.edge_component));
  EXPECT_EQ(svc.engine().graph().m(), before.size() - 1);
}

TEST(Service, ConcurrentReadersNeverBlockOnWriter) {
  // The TSan target of the serving layer: 4 readers hammer snapshot()
  // and query their epochs while the writer churns through batches and
  // publishes.  Readers assert epoch-internal invariants only (their
  // epoch may lag the writer by design).
  const vid n = 200;
  BccContext ctx(4);
  BccService svc(ctx, gen::random_connected_gnm(n, 420, 17));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> reads_during_write{0};
  std::atomic<bool> writing{false};

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Xoshiro256 rng(100 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::shared_ptr<const Snapshot> snap = svc.snapshot();
        const vid u = static_cast<vid>(rng() % n);
        const vid v = static_cast<vid>(rng() % n);
        if (snap->same_block(u, v)) {
          // Sharing a block implies sharing a 2EC component unless the
          // block is a single (bridge) edge.
          EXPECT_TRUE(snap->same_two_edge(u, v) ||
                      snap->path_articulation(u, v) == 0u);
        }
        EXPECT_EQ(snap->same_block(u, v), snap->same_block(v, u));
        const vid cut_count = snap->path_articulation(u, v);
        if (u != v && cut_count != kNoVertex && cut_count > 0) {
          EXPECT_FALSE(snap->same_block(u, v));
        }
        reads.fetch_add(1, std::memory_order_relaxed);
        if (writing.load(std::memory_order_relaxed)) {
          reads_during_write.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Ten batches on 200 vertices finish in well under a millisecond, so
  // on a loaded host the writer could be done before any reader was
  // scheduled; start writing once the readers are reading.
  while (reads.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  Xoshiro256 rng(17);
  for (int round = 0; round < 10; ++round) {
    std::vector<Edge> ins;
    for (int i = 0; i < 8; ++i) {
      const vid u = static_cast<vid>(rng() % n);
      ins.push_back({u, static_cast<vid>((u + 1 + rng() % (n - 2)) % n)});
    }
    const eid del = static_cast<eid>(rng() % svc.snapshot()->m());
    writing.store(true, std::memory_order_relaxed);
    svc.apply_batch(ins, {&del, 1});
    writing.store(false, std::memory_order_relaxed);
  }

  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(svc.version(), 10u);
  EXPECT_GT(reads.load(), 0u);
}

// --- Wire protocol ---

/// Frames are length prefix + payload; decoders take the payload.
std::span<const std::uint8_t> payload_of(
    const std::vector<std::uint8_t>& frame) {
  return std::span<const std::uint8_t>(frame).subspan(4);
}

TEST(Protocol, QueryRoundTrip) {
  const std::vector<Query> queries{{Op::kSameBlock, 1, 2},
                                   {Op::kIsCut, 7, 0},
                                   {Op::kBlockId, 3, 0},
                                   {Op::kPathArticulation, 4, 9},
                                   {Op::kSameTwoEdge, 0, 0}};
  const std::vector<std::uint8_t> frame = server::encode_query_request(queries);
  EXPECT_EQ(server::decode_request_type(payload_of(frame)),
            server::MsgType::kQuery);
  const std::vector<Query> back =
      server::decode_query_request(payload_of(frame));
  ASSERT_EQ(back.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(back[i].op, queries[i].op);
    EXPECT_EQ(back[i].a, queries[i].a);
    EXPECT_EQ(back[i].b, queries[i].b);
  }

  const std::vector<std::uint32_t> results{1, 0, 5, kNoVertex, 1};
  const std::vector<std::uint8_t> reply =
      server::encode_query_reply(42, results);
  const QueryReply decoded = server::decode_query_reply(payload_of(reply));
  EXPECT_EQ(decoded.version, 42u);
  EXPECT_EQ(decoded.results, results);
}

TEST(Protocol, MutateAndInfoRoundTrip) {
  const std::vector<Edge> ins{{0, 5}, {3, 2}};
  const std::vector<eid> dels{9, 1, 4};
  const std::vector<std::uint8_t> frame =
      server::encode_mutate_request(ins, dels);
  EXPECT_EQ(server::decode_request_type(payload_of(frame)),
            server::MsgType::kMutate);
  const server::MutateRequest req =
      server::decode_mutate_request(payload_of(frame));
  ASSERT_EQ(req.insertions.size(), 2u);
  EXPECT_EQ(req.insertions[1].u, 3u);
  EXPECT_EQ(req.deletions, dels);

  InfoReply info;
  info.version = 3;
  info.n = 100;
  info.m = 250;
  info.num_blocks = 7;
  info.num_cut_vertices = 5;
  info.num_two_edge_components = 9;
  const std::vector<std::uint8_t> reply = server::encode_info_reply(info);
  const InfoReply back = server::decode_info_reply(payload_of(reply));
  EXPECT_EQ(back.version, 3u);
  EXPECT_EQ(back.m, 250u);
  EXPECT_EQ(back.num_two_edge_components, 9u);
}

TEST(Protocol, ErrorReplySurfacesMessage) {
  const std::vector<std::uint8_t> reply =
      server::encode_error_reply("boom: bad batch");
  try {
    server::decode_query_reply(payload_of(reply));
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("boom: bad batch"),
              std::string::npos);
  }
}

TEST(Protocol, RejectsMalformedPayloads) {
  EXPECT_THROW(server::decode_request_type({}), ProtocolError);
  const std::vector<std::uint8_t> unknown_type{99};
  EXPECT_THROW(server::decode_request_type(unknown_type), ProtocolError);

  // A declared query count larger than the bytes present must be
  // rejected before any allocation sized by it.
  std::vector<std::uint8_t> lying{1, 0xff, 0xff, 0xff, 0x7f};
  EXPECT_THROW(server::decode_query_request(lying), ProtocolError);

  // Truncated body.
  std::vector<std::uint8_t> frame = server::encode_query_request(
      std::vector<Query>{{Op::kIsCut, 1, 0}});
  std::vector<std::uint8_t> truncated(frame.begin() + 4, frame.end() - 2);
  EXPECT_THROW(server::decode_query_request(truncated), ProtocolError);

  // Trailing garbage.
  std::vector<std::uint8_t> padded(frame.begin() + 4, frame.end());
  padded.push_back(0);
  EXPECT_THROW(server::decode_query_request(padded), ProtocolError);

  // Unknown op inside a well-formed envelope.
  std::vector<Query> bad_op{{static_cast<Op>(77), 0, 0}};
  const std::vector<std::uint8_t> bad = server::encode_query_request(bad_op);
  EXPECT_THROW(server::decode_query_request(payload_of(bad)), ProtocolError);

  // Mutation counts past the hard cap.
  std::vector<std::uint8_t> huge{2};
  const std::uint32_t cap = server::kMaxMutationEdges + 1;
  for (int i = 0; i < 4; ++i) huge.push_back((cap >> (8 * i)) & 0xff);
  EXPECT_THROW(server::decode_mutate_request(huge), ProtocolError);
}

// --- TCP end-to-end ---

TEST(TcpServer, EndToEndQueryMutateInfo) {
  BccContext ctx(2);
  BccService svc(ctx, gen::clique_chain(3, 4));
  BccServer srv(svc);
  ASSERT_NE(srv.port(), 0);

  BccClient client("127.0.0.1", srv.port());
  const InfoReply info = client.info();
  EXPECT_EQ(info.version, 0u);
  EXPECT_EQ(info.n, svc.snapshot()->n());
  EXPECT_EQ(info.num_blocks, 3u);

  // Answers over the wire equal direct snapshot evaluation.
  std::vector<Query> queries;
  for (vid u = 0; u < info.n; ++u) {
    queries.push_back({Op::kIsCut, u, 0});
    queries.push_back({Op::kSameBlock, u, (u + 1) % info.n});
    queries.push_back({Op::kPathArticulation, 0, u});
  }
  const QueryReply reply = client.query(queries);
  EXPECT_EQ(reply.version, 0u);
  const std::shared_ptr<const Snapshot> snap = svc.snapshot();
  ASSERT_EQ(reply.results.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(reply.results[i], server::evaluate_query(*snap, queries[i]));
  }

  // Mutate over the wire; the reply reports the published epoch.
  const std::vector<Edge> ins{{0, static_cast<vid>(info.n - 1)}};
  const InfoReply after = client.apply_batch(ins, {});
  EXPECT_EQ(after.version, 1u);
  EXPECT_EQ(after.m, info.m + 1);
  EXPECT_EQ(svc.version(), 1u);

  // A malformed mutation earns an error reply, not a broken stream.
  const std::vector<Edge> loop{{2, 2}};
  EXPECT_THROW(client.apply_batch(loop, {}), ProtocolError);
  const InfoReply still = client.info();
  EXPECT_EQ(still.version, 1u);

  EXPECT_GE(srv.stats().query_batches.load(), 1u);
  EXPECT_GE(srv.stats().error_replies.load(), 1u);
}

TEST(TcpServer, SurvivesHostileFrames) {
  BccContext ctx(1);
  BccService svc(ctx, gen::cycle(5));
  BccServer srv(svc);

  // A decodable-but-invalid request: error reply, connection lives.
  BccClient client("127.0.0.1", srv.port());
  std::vector<Query> bad{{static_cast<Op>(200), 1, 1}};
  EXPECT_THROW(client.query(bad), ProtocolError);
  EXPECT_EQ(client.info().n, 5u);  // same connection still answers

  // Broken framing: an absurd length prefix closes the connection.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(srv.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::uint8_t hostile[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(::write(fd, hostile, 4), 4);
  std::uint8_t buf[16];
  EXPECT_EQ(::read(fd, buf, sizeof(buf)), 0);  // clean close, no reply
  ::close(fd);

  // The server is still healthy for well-behaved clients.
  BccClient again("127.0.0.1", srv.port());
  EXPECT_EQ(again.info().num_blocks, 1u);
}

TEST(TcpServer, ConcurrentClientsDuringMutation) {
  const vid n = 120;
  BccContext ctx(4);
  BccService svc(ctx, gen::random_connected_gnm(n, 260, 23));
  BccServer srv(svc);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> batches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      BccClient c("127.0.0.1", srv.port());
      Xoshiro256 rng(40 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        std::vector<Query> qs;
        for (int i = 0; i < 16; ++i) {
          qs.push_back({Op::kSameBlock, static_cast<vid>(rng() % n),
                        static_cast<vid>(rng() % n)});
        }
        const QueryReply r = c.query(qs);
        ASSERT_EQ(r.results.size(), qs.size());
        batches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  BccClient writer("127.0.0.1", srv.port());
  Xoshiro256 rng(23);
  for (int round = 0; round < 6; ++round) {
    std::vector<Edge> ins;
    for (int i = 0; i < 5; ++i) {
      const vid u = static_cast<vid>(rng() % n);
      ins.push_back({u, static_cast<vid>((u + 1 + rng() % (n - 2)) % n)});
    }
    const InfoReply r = writer.apply_batch(ins, {});
    EXPECT_EQ(r.version, static_cast<std::uint64_t>(round + 1));
  }

  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : clients) t.join();
  EXPECT_GT(batches.load(), 0u);
  EXPECT_EQ(svc.version(), 6u);
  srv.stop();
  EXPECT_GE(srv.stats().connections_accepted.load(), 4u);
}

}  // namespace
}  // namespace parbcc
