#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/bcc.hpp"
#include "graph/io_binary.hpp"
#include "graph/text_parse.hpp"
#include "test_util.hpp"

/// Reference-output tests over the committed graph fixtures in
/// tests/data/: four deterministic structured stand-ins for the
/// paper's real-graph families (road / web / social / block-heavy;
/// regenerate with tools/make_refgraphs.py).  Each graph ships as both
/// the text edge list and the converted .pbg, plus a pinned invariant
/// row in refgraphs.tsv (regenerate with `pbgstat --tsv`).  The test
/// loads every graph through BOTH ingestion paths — the parallel text
/// parser and the zero-copy mmap loader — at p in {1, 4, 12}, and
/// asserts the text parse equals the .pbg edge for edge, the
/// invariants match the table, and the label partitions match each
/// other.  A drift in either parser, the .pbg writer, the
/// loader, or any solver shows up as a diff against numbers that are
/// committed to the repo.

#ifndef PARBCC_TEST_DATA_DIR
#error "PARBCC_TEST_DATA_DIR must point at tests/data"
#endif

namespace parbcc {
namespace {

struct RefRow {
  std::string name;
  vid n = 0;
  eid m = 0;
  vid num_components = 0;
  eid largest_block_edges = 0;
  std::uint64_t articulation_points = 0;
  std::uint64_t bridges = 0;
};

std::vector<RefRow> load_table() {
  const std::string path = std::string(PARBCC_TEST_DATA_DIR) +
                           "/refgraphs.tsv";
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::vector<RefRow> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    RefRow r;
    ls >> r.name >> r.n >> r.m >> r.num_components >> r.largest_block_edges >>
        r.articulation_points >> r.bridges;
    EXPECT_FALSE(ls.fail()) << "bad row: " << line;
    rows.push_back(std::move(r));
  }
  return rows;
}

struct Invariants {
  vid num_components;
  eid largest_block_edges;
  std::uint64_t articulation_points;
  std::uint64_t bridges;
};

Invariants invariants_of(const BccResult& r) {
  std::vector<eid> block_edges(r.num_components, 0);
  for (const vid c : r.edge_component) ++block_edges[c];
  const eid largest =
      block_edges.empty()
          ? 0
          : *std::max_element(block_edges.begin(), block_edges.end());
  std::uint64_t cuts = 0;
  for (const std::uint8_t a : r.is_articulation) cuts += a;
  return {r.num_components, largest, cuts, r.bridges.size()};
}

class RealGraph : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RealGraph, TextAndMmapMatchPinnedInvariants) {
  static const std::vector<RefRow> table = load_table();
  ASSERT_EQ(table.size(), 4u);
  const RefRow& ref = table[std::get<0>(GetParam())];
  const int p = std::get<1>(GetParam());
  const std::string base = std::string(PARBCC_TEST_DATA_DIR) + "/" + ref.name;

  BccOptions opt;
  opt.threads = p;

  // Path 1: parallel text parse.
  Executor ex(p);
  const EdgeList text_graph = io::read_text_graph(ex, base + ".txt");
  ASSERT_EQ(text_graph.n, ref.n);
  ASSERT_EQ(text_graph.m(), ref.m);
  const BccResult from_text = testutil::solve(ex, text_graph, opt);

  // Path 2: zero-copy mmap of the committed .pbg (deep verify on —
  // these are fixtures, a corrupted checkout should fail loudly).
  BccContext ctx(p);
  io::MapOptions mopt;
  mopt.verify = true;
  const PreparedGraph& pg = io::map_prepared_graph(ctx, base + ".pbg", mopt);
  const EdgeList* mapped = ctx.mapped_graph();
  ASSERT_NE(mapped, nullptr);
  ASSERT_EQ(mapped->n, ref.n);
  ASSERT_EQ(mapped->m(), ref.m);
  ASSERT_TRUE(pg.csr().is_borrowed());
  // The committed .pbg files were converted from these texts, so the
  // parse must reproduce them edge for edge: this pins the SNAP
  // densify order, not just the invariants.
  for (eid e = 0; e < ref.m; ++e) {
    ASSERT_EQ(text_graph.edges[e].u, mapped->edges[e].u)
        << ref.name << " e=" << e;
    ASSERT_EQ(text_graph.edges[e].v, mapped->edges[e].v)
        << ref.name << " e=" << e;
  }
  const BccResult from_map = biconnected_components(ctx, *mapped, opt);
  // The adopted CSR was keyed into the context's cache, and neither
  // kAuto engine splits a disconnected input into relabeled
  // subproblems: no solve rebuilds adjacency.
  EXPECT_EQ(from_map.times.conversion, 0.0);

  // kAuto and FastBCC against HT on the mapped graph.
  BccOptions ht_opt;
  ht_opt.algorithm = BccAlgorithm::kSequential;
  const BccResult ht = biconnected_components(ctx, *mapped, ht_opt);
  for (const BccAlgorithm algorithm :
       {BccAlgorithm::kAuto, BccAlgorithm::kFastBcc}) {
    BccOptions engine_opt;
    engine_opt.algorithm = algorithm;
    const BccResult r = biconnected_components(ctx, *mapped, engine_opt);
    EXPECT_EQ(r.times.conversion, 0.0) << to_string(algorithm);
    ASSERT_EQ(r.num_components, ht.num_components)
        << ref.name << " " << to_string(algorithm);
    EXPECT_TRUE(testutil::same_partition(r.edge_component, ht.edge_component))
        << ref.name << " " << to_string(algorithm) << " p=" << p;
  }

  // Both paths match the committed table...
  for (const BccResult* r : {&from_text, &from_map}) {
    const Invariants inv = invariants_of(*r);
    EXPECT_EQ(inv.num_components, ref.num_components) << ref.name;
    EXPECT_EQ(inv.largest_block_edges, ref.largest_block_edges) << ref.name;
    EXPECT_EQ(inv.articulation_points, ref.articulation_points) << ref.name;
    EXPECT_EQ(inv.bridges, ref.bridges) << ref.name;
  }
  // ...and each other, as labelings.  Both ingestion paths emit edges
  // in the same canonical order, so labels align index for index.
  ASSERT_EQ(from_text.edge_component.size(), from_map.edge_component.size());
  EXPECT_TRUE(testutil::same_partition(from_text.edge_component,
                                       from_map.edge_component))
      << ref.name << " p=" << p;
  EXPECT_EQ(from_text.is_articulation, from_map.is_articulation);
  EXPECT_EQ(from_text.bridges, from_map.bridges);
}

std::string fixture_name(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  static const char* const names[4] = {"road_grid", "web_pa", "social_comm",
                                       "clique_chain"};
  return std::string(names[std::get<0>(info.param)]) + "_p" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(Fixtures, RealGraph,
                         ::testing::Combine(::testing::Range(0, 4),
                                            ::testing::Values(1, 4, 12)),
                         fixture_name);

}  // namespace
}  // namespace parbcc
