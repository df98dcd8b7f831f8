#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/bcc.hpp"
#include "engines.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/io_binary.hpp"
#include "graph/text_parse.hpp"
#include "test_util.hpp"
#include "util/trace.hpp"

namespace parbcc {
namespace {

/// Edge lists compare exactly; DIMACS preserves order too.  METIS
/// stores an adjacency structure, so round-tripping through it may
/// reorder edges and flip endpoint order — compare as canonical sets.
std::multiset<std::pair<vid, vid>> edge_set(const EdgeList& g) {
  std::multiset<std::pair<vid, vid>> s;
  for (const Edge& e : g.edges) {
    s.insert({std::min(e.u, e.v), std::max(e.u, e.v)});
  }
  return s;
}

class IoRoundTrip : public ::testing::TestWithParam<int> {
 protected:
  EdgeList input() const {
    switch (GetParam()) {
      case 0:
        return EdgeList(0, {});
      case 1:
        return EdgeList(5, {});  // isolated vertices only
      case 2:
        return gen::clique_chain(3, 4);
      case 3:
        return gen::random_gnm(60, 150, 42);  // parallel edges possible
      default:
        return gen::star(8);
    }
  }
};

/// The executor the in-memory parse tests share: 4 workers, so a body
/// of more than 16 KiB splits into several chunks.
Executor& executor() {
  static Executor ex(4);
  return ex;
}

EdgeList parse_edge_list(const std::string& text) {
  return io::parse_edge_list(executor(), text);
}

EdgeList parse_dimacs(const std::string& text) {
  return io::parse_dimacs(executor(), text);
}

EdgeList parse_metis(const std::string& text) { return io::parse_metis(text); }

EdgeList parse_snap(const std::string& text) {
  return io::parse_snap(executor(), text);
}

/// `parse(text)` must throw a std::runtime_error whose message names
/// `format` (and, when given, contains `detail`).
template <typename Parse>
void expect_text_rejected(const Parse& parse, const std::string& text,
                          const std::string& format,
                          const std::string& detail = "") {
  try {
    parse(text);
    ADD_FAILURE() << format << " accepted \"" << text << "\"";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind(format + ":", 0), 0u) << what;
    EXPECT_NE(what.find(detail), std::string::npos) << what;
  }
}

void expect_edge_list_rejected(const std::string& text) {
  expect_text_rejected(parse_edge_list, text, "edge list");
}

void expect_dimacs_rejected(const std::string& text) {
  expect_text_rejected(parse_dimacs, text, "dimacs");
}

void expect_metis_rejected(const std::string& text) {
  expect_text_rejected(parse_metis, text, "metis");
}

void expect_same_edges(const EdgeList& got, const EdgeList& want) {
  ASSERT_EQ(got.n, want.n);
  ASSERT_EQ(got.m(), want.m());
  for (eid e = 0; e < want.m(); ++e) {
    ASSERT_EQ(got.edges[e].u, want.edges[e].u) << "e=" << e;
    ASSERT_EQ(got.edges[e].v, want.edges[e].v) << "e=" << e;
  }
}

TEST_P(IoRoundTrip, EdgeList) {
  const EdgeList g = input();
  std::stringstream ss;
  io::write_edge_list(ss, g);
  expect_same_edges(parse_edge_list(ss.str()), g);
}

TEST_P(IoRoundTrip, Dimacs) {
  const EdgeList g = input();
  std::stringstream ss;
  io::write_dimacs(ss, g);
  expect_same_edges(parse_dimacs(ss.str()), g);
}

TEST_P(IoRoundTrip, Metis) {
  const EdgeList g = input();
  std::stringstream ss;
  io::write_metis(ss, g);
  const EdgeList back = parse_metis(ss.str());
  EXPECT_EQ(back.n, g.n);
  EXPECT_EQ(edge_set(back), edge_set(g));
}

INSTANTIATE_TEST_SUITE_P(Shapes, IoRoundTrip, ::testing::Range(0, 5));

TEST(IoEdgeList, AcceptsCommentsAndBlankLines) {
  const EdgeList g =
      parse_edge_list("# header comment\n\n3 2\n# body\n0 1\n\n1 2\n");
  EXPECT_EQ(g.n, 3u);
  ASSERT_EQ(g.edges.size(), 2u);
  EXPECT_EQ(g.edges[1].u, 1u);
  EXPECT_EQ(g.edges[1].v, 2u);
}

TEST(IoEdgeList, RejectsMalformedInput) {
  expect_edge_list_rejected("");
  expect_edge_list_rejected("# only comments\n");
  expect_edge_list_rejected("nonsense\n");
  expect_edge_list_rejected("3\n");         // no m
  expect_edge_list_rejected("3 2\n0 1\n");  // truncated
  expect_edge_list_rejected("3 1\n0\n");    // bad edge
  expect_edge_list_rejected("3 1\nx y\n");
}

TEST(IoEdgeList, RejectsOutOfRangeEndpoints) {
  expect_edge_list_rejected("3 1\n0 3\n");
  expect_edge_list_rejected("3 1\n7 1\n");
  // Endpoints are checked against the declared n even when they would
  // fit in 32 bits.
  expect_edge_list_rejected("2 1\n0 4294967295\n");
}

TEST(IoEdgeList, RejectsHeaderExceedingIdSpace) {
  // A vertex count at or past kNoVertex would alias the sentinel after
  // the narrowing cast; the reader must reject it, not truncate.
  expect_edge_list_rejected("5000000000 1\n0 1\n");
  expect_edge_list_rejected("4294967295 0\n");
  expect_text_rejected(parse_edge_list, "18446744073709551615 0\n",
                       "edge list", "vertex count");
  // Largest representable id is fine.
  const EdgeList g = parse_edge_list("4294967294 0\n");
  EXPECT_EQ(g.n, kNoVertex - 1);
}

TEST(IoEdgeList, HostileEdgeCountDoesNotPreallocate) {
  // An edge count past the eid space is rejected from the header, and
  // no count is trusted for an up-front allocation: the body must
  // deliver the edges.
  expect_text_rejected(parse_edge_list, "10 4294967294\n0 1\n", "edge list",
                       "edge count");
  expect_edge_list_rejected("10 4294967295\n");
  expect_edge_list_rejected("10 2147483647\n0 1\n");
}

TEST(IoDimacs, RejectsMalformedInput) {
  expect_dimacs_rejected("");
  expect_dimacs_rejected("c only a comment\n");
  expect_dimacs_rejected("p edge 3\n");
  expect_dimacs_rejected("p graph 3 1\ne 1 2\n");
  expect_dimacs_rejected("e 1 2\np edge 3 1\n");
  expect_dimacs_rejected("p edge 3 1\np edge 3 1\ne 1 2\n");
  expect_dimacs_rejected("p edge 3 1\nz 1 2\n");
  expect_dimacs_rejected("p edge 3 2\ne 1 2\n");
  expect_dimacs_rejected("p edge 3 1\ne 0 2\n");
  expect_dimacs_rejected("p edge 3 1\ne 1 4\n");
  expect_dimacs_rejected("p edge 5000000000 0\n");
}

TEST(IoMetis, RejectsMalformedInput) {
  expect_metis_rejected("");
  expect_metis_rejected("3\n");
  expect_text_rejected(parse_metis, "3 1 1\n2 3\n1\n1\n", "metis",
                       "weighted");
  expect_metis_rejected("3 1\n2\n");  // truncated
  expect_metis_rejected("3 1\n4\n\n\n");
  expect_metis_rejected("3 1\n0\n\n\n");
  expect_metis_rejected("3 2\n2\n1\n\n");  // count
  expect_metis_rejected("5000000000 0\n");
  expect_metis_rejected("2 1\n2\n1\n1 2\n");  // a row past the n-th
}

TEST(IoMetis, AcceptsFmtZeroAndTrailingBlankLines) {
  const EdgeList g = parse_metis("# comment\n3 2 0\n2 3\n1\n1\n\n# end\n");
  EXPECT_EQ(g.n, 3u);
  EXPECT_EQ(edge_set(g),
            (std::multiset<std::pair<vid, vid>>{{0, 1}, {0, 2}}));
  // The last row needs no newline.
  EXPECT_EQ(parse_metis("2 1\n2\n1").m(), 1u);
}

TEST(IoMetis, RejectsSelfLoopsOnWrite) {
  const EdgeList g(2, {{1, 1}});
  std::stringstream ss;
  EXPECT_THROW(io::write_metis(ss, g), std::runtime_error);
}

TEST(TextGrammar, RejectsTrailingFields) {
  // Headers and edge lines end after their fields in every format.
  expect_edge_list_rejected("3 1 x\n0 1\n");
  expect_edge_list_rejected("3 1\n0 1 junk\n");
  expect_dimacs_rejected("p edge 3 1 9\ne 1 2\n");
  expect_dimacs_rejected("p edge 3 1\ne 1 2 junk\n");
  expect_dimacs_rejected("p edge 3 1\ne1 2\n");  // a blank ends the tag
  expect_metis_rejected("3 1 0 7\n2\n1\n\n");
  expect_metis_rejected("3 1\n2 x\n1\n\n");
  // SNAP keeps its weight column.
  EXPECT_EQ(parse_snap("1 2 0.5\n2 3\tw\n").m(), 2u);
}

// ---------------------------------------------------------------------------
// The parsers from every thread count: the writers are the reference,
// over the committed fixtures, and an error anywhere in the body is
// reported by the format.

TEST(ParallelParse, FixturesRoundTripThroughEveryWriter) {
  struct Writer {
    io::TextFormat format;
    void (*write)(std::ostream&, const EdgeList&);
  };
  const Writer writers[] = {{io::TextFormat::kEdgeList, io::write_edge_list},
                            {io::TextFormat::kDimacs, io::write_dimacs},
                            {io::TextFormat::kMetis, io::write_metis}};
  Executor ex1(1);
  Executor ex4(4);
  Executor ex12(12);
  for (const char* name :
       {"clique-chain", "road-grid", "social-comm", "web-pa"}) {
    const EdgeList g = io::read_text_graph(
        ex4, std::string(PARBCC_TEST_DATA_DIR) + "/" + name + ".txt",
        io::TextFormat::kSnap);
    ASSERT_GT(g.m(), 0u) << name;
    for (const Writer& w : writers) {
      const std::string path = ::testing::TempDir() + name + "." +
                               std::to_string(static_cast<int>(w.format));
      {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        w.write(out, g);
        ASSERT_TRUE(out.good()) << path;
      }
      for (Executor* ex : {&ex1, &ex4, &ex12}) {
        for (const io::TextFormat format : {w.format, io::TextFormat::kAuto}) {
          SCOPED_TRACE(std::string(name) + " writer " +
                       std::to_string(static_cast<int>(w.format)) +
                       " read as " + std::to_string(static_cast<int>(format)) +
                       " at p=" + std::to_string(ex->threads()));
          expect_same_edges(io::read_text_graph(*ex, path, format), g);
        }
      }
    }
  }
}

TEST(ParallelParse, MalformedLineInLastChunkNamesFormat) {
  // At p = 4 a body of B bytes parses in min(B / 16 KiB, 16) chunks, so
  // a body of >= 128 KiB has >= 8; the bad line ends the body, in the
  // last chunk.
  const EdgeList g = gen::random_gnm(3000, 30000, 31);
  std::stringstream plain;
  io::write_edge_list(plain, g);
  std::stringstream dimacs;
  io::write_dimacs(dimacs, g);
  std::string snap;
  for (const Edge& e : g.edges) {
    snap += std::to_string(e.u) + '\t' + std::to_string(e.v) + '\n';
  }
  const struct {
    std::string text;
    EdgeList (*parse)(const std::string&);
    const char* format;
    const char* bad_line;
  } cases[] = {{plain.str(), parse_edge_list, "edge list", "0 x"},
               {dimacs.str(), parse_dimacs, "dimacs", "e 1 x"},
               {snap, parse_snap, "snap", "1 x"}};
  for (const auto& c : cases) {
    ASSERT_GE(c.text.size(), std::size_t{8} << 14) << c.format;
    expect_text_rejected(c.parse, c.text + c.bad_line + "\n", c.format,
                         std::string("malformed line \"") + c.bad_line);
  }
}

TEST(ParallelParse, SnapDensifiesDedupesAndDropsLoops) {
  Executor ex(4);
  // Sparse 64-bit ids, duplicate arcs both ways, a self-loop, comments.
  const EdgeList g = io::parse_snap(ex,
                                    "# comment\n"
                                    "1000000000000 7\n"
                                    "7 1000000000000\n"
                                    "42 42\n"
                                    "7 42\n");
  EXPECT_EQ(g.n, 3u);  // ids {7, 42, 10^12} densified
  ASSERT_EQ(g.m(), 2u);  // one direction kept, loop dropped
  EXPECT_EQ(edge_set(g), (std::multiset<std::pair<vid, vid>>{{0, 1}, {0, 2}}));
}

TEST(ParallelParse, RejectsMalformedInput) {
  Executor ex(4);
  EXPECT_THROW(io::parse_edge_list(ex, ""), std::runtime_error);
  EXPECT_THROW(io::parse_edge_list(ex, "3 2\n0 1\n"), std::runtime_error);
  EXPECT_THROW(io::parse_edge_list(ex, "3 1\n0 3\n"), std::runtime_error);
  EXPECT_THROW(io::parse_edge_list(ex, "3 1\n0 1 junk\n"),
               std::runtime_error);
  EXPECT_THROW(io::parse_edge_list(ex, "5000000000 1\n0 1\n"),
               std::runtime_error);
  EXPECT_THROW(io::parse_dimacs(ex, "p edge 3 1\ne 0 2\n"),
               std::runtime_error);
  EXPECT_THROW(io::parse_dimacs(ex, "p edge 3 2\ne 1 2\n"),
               std::runtime_error);
  EXPECT_THROW(io::parse_dimacs(ex, "p graph 3 1\ne 1 2\n"),
               std::runtime_error);
  EXPECT_THROW(io::parse_dimacs(ex, "p col 3 1\ne 1 2\n"),
               std::runtime_error);
  EXPECT_THROW(io::parse_snap(ex, "1 2\nnonsense\n"), std::runtime_error);
  EXPECT_THROW(io::parse_snap(ex, "1\n"), std::runtime_error);
}

TEST(ParallelParse, ManyChunksPreserveOrder) {
  // Enough lines that every thread gets several chunks; edge ids must
  // still come out in file order (the concat is order-preserving).
  const vid n = 20000;
  std::string text = std::to_string(n) + " " + std::to_string(n - 1) + "\n";
  for (vid v = 1; v < n; ++v) {
    text += std::to_string(v - 1) + " " + std::to_string(v) + "\n";
  }
  Executor ex(12);
  const EdgeList parsed = io::parse_edge_list(ex, text);
  ASSERT_EQ(parsed.m(), n - 1);
  for (eid e = 0; e < parsed.m(); ++e) {
    ASSERT_EQ(parsed.edges[e].u, e);
    ASSERT_EQ(parsed.edges[e].v, e + 1);
  }
}

/// The serial densify and dedupe parse_snap used before its sort-based
/// parallel pipeline, kept as the oracle: sorted unique raw ids become
/// [0, n) by binary search, then canonical (lo, hi) arcs minus loops
/// are sorted and deduplicated.
EdgeList serial_snap_oracle(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& raw) {
  std::vector<std::uint64_t> ids;
  ids.reserve(2 * raw.size());
  for (const auto& [u, v] : raw) {
    ids.push_back(u);
    ids.push_back(v);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  const auto remap = [&](std::uint64_t id) {
    return static_cast<vid>(std::lower_bound(ids.begin(), ids.end(), id) -
                            ids.begin());
  };
  std::vector<std::uint64_t> packed;
  packed.reserve(raw.size());
  for (const auto& [ru, rv] : raw) {
    const vid u = remap(ru);
    const vid v = remap(rv);
    if (u == v) continue;
    packed.push_back((std::uint64_t{std::min(u, v)} << 32) | std::max(u, v));
  }
  std::sort(packed.begin(), packed.end());
  packed.erase(std::unique(packed.begin(), packed.end()), packed.end());
  std::vector<Edge> edges;
  edges.reserve(packed.size());
  for (const std::uint64_t k : packed) {
    edges.push_back({static_cast<vid>(k >> 32), static_cast<vid>(k)});
  }
  return EdgeList(static_cast<vid>(ids.size()), std::move(edges));
}

TEST(ParallelParse, SnapDensifyMatchesSerialOracle) {
  // ~60k lines: every thread gets several chunks and both radix sorts
  // run their parallel passes.  Ids span all 8 bytes; arcs repeat in
  // both directions; loops (one id appears only in a loop) and
  // comments, CRLF endings and a weight column are mixed in.
  std::mt19937_64 rng(20230101);
  std::vector<std::uint64_t> pool = {0, 1, ~std::uint64_t{0},
                                     std::uint64_t{1} << 56,
                                     (std::uint64_t{1} << 63) + 5};
  while (pool.size() < 6000) {
    const int bytes = static_cast<int>(rng() % 8) + 1;
    pool.push_back(rng() >> (64 - 8 * bytes));
  }
  const std::uint64_t loop_only = (std::uint64_t{1} << 60) + 12345;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> raw;
  std::string text = "# SNAP-style header\n# Nodes: ? Edges: ?\n";
  const auto emit = [&](std::uint64_t u, std::uint64_t v) {
    raw.push_back({u, v});
    text += std::to_string(u) + '\t' + std::to_string(v);
    switch (raw.size() % 7) {
      case 0:
        text += "\r\n";
        break;
      case 1:
        text += "\t3.25\n";  // weight column
        break;
      case 2:
        text += " 17\r\n";
        break;
      default:
        text += '\n';
    }
    if (raw.size() % 997 == 0) text += "# interleaved comment\n";
  };
  while (raw.size() < 60000) {
    const std::uint64_t r = rng() % 20;
    if (r == 0 && !raw.empty()) {
      const auto [u, v] = raw[rng() % raw.size()];
      emit(v, u);  // the reverse arc
    } else if (r == 1 && !raw.empty()) {
      const auto [u, v] = raw[rng() % raw.size()];
      emit(u, v);  // an exact repeat
    } else if (r == 2) {
      const std::uint64_t u = pool[rng() % pool.size()];
      emit(u, u);
    } else {
      // Skew toward a few hubs so runs of equal ids cross blocks.
      const std::size_t hub = rng() % 4 == 0 ? rng() % 8 : rng() % pool.size();
      emit(pool[hub], pool[rng() % pool.size()]);
    }
  }
  emit(loop_only, loop_only);

  const EdgeList want = serial_snap_oracle(raw);
  ASSERT_GT(want.n, 5000u);
  ASSERT_LT(want.m(), raw.size());  // duplicates and loops were dropped
  for (const int p : {1, 4, 12}) {
    Executor ex(p);
    const EdgeList got = io::parse_snap(ex, text);
    ASSERT_EQ(got.n, want.n) << "p=" << p;
    ASSERT_EQ(got.m(), want.m()) << "p=" << p;
    for (eid e = 0; e < want.m(); ++e) {
      ASSERT_EQ(got.edges[e].u, want.edges[e].u) << "p=" << p << " e=" << e;
      ASSERT_EQ(got.edges[e].v, want.edges[e].v) << "p=" << p << " e=" << e;
    }
  }
}

constexpr io::TextFormat kAllFormats[] = {
    io::TextFormat::kAuto, io::TextFormat::kEdgeList, io::TextFormat::kDimacs,
    io::TextFormat::kSnap, io::TextFormat::kMetis};

TEST(ReadTextGraph, DirectoryPathThrowsForEveryFormat) {
  Executor ex(2);
  const std::string dir = ::testing::TempDir();
  for (const io::TextFormat format : kAllFormats) {
    try {
      io::read_text_graph(ex, dir, format);
      FAIL() << "directory accepted, format " << static_cast<int>(format);
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("cannot read " + dir),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(io::read_text_graph(ex, dir + "no-such-file.txt"),
               std::runtime_error);
}

TEST(ReadTextGraph, EmptyFileParsesAsEmptyText) {
  Executor ex(2);
  const std::string path = ::testing::TempDir() + "empty.txt";
  { std::ofstream out(path, std::ios::binary | std::ios::trunc); }
  for (const io::TextFormat format :
       {io::TextFormat::kAuto, io::TextFormat::kSnap}) {
    const EdgeList g = io::read_text_graph(ex, path, format);
    EXPECT_EQ(g.n, 0u);
    EXPECT_EQ(g.m(), 0u);
  }
  EXPECT_THROW(io::read_text_graph(ex, path, io::TextFormat::kEdgeList),
               std::runtime_error);
  EXPECT_THROW(io::read_text_graph(ex, path, io::TextFormat::kDimacs),
               std::runtime_error);
  EXPECT_THROW(io::read_text_graph(ex, path, io::TextFormat::kMetis),
               std::runtime_error);
}

TEST(ReadTextGraph, TraceSpansNestUnderTheCaller) {
  const std::string path = ::testing::TempDir() + "traced.txt";
  std::string text = "# traced\n";
  for (int i = 0; i < 5000; ++i) {
    text += std::to_string(1000 + i) + ' ' +
            std::to_string(1000 + (i * 7) % 5000) + '\n';
  }
  { std::ofstream(path, std::ios::binary | std::ios::trunc) << text; }

  Executor ex(4);
  Trace trace(ex.threads());
  trace.begin("caller");
  const EdgeList g =
      io::read_text_graph(ex, path, io::TextFormat::kSnap, &trace);
  trace.end("caller");
  EXPECT_EQ(g.n, 5000u);

  const TraceReport report = trace.report();
  const TracePhase* caller = report.find_path("caller");
  ASSERT_NE(caller, nullptr);
  double self = caller->exclusive_seconds;
  for (const char* path_name :
       {"caller/io_read", "caller/io_parse", "caller/io_parse/io_densify"}) {
    const TracePhase* phase = report.find_path(path_name);
    ASSERT_NE(phase, nullptr) << path_name;
    EXPECT_EQ(phase->calls, 1u) << path_name;
    EXPECT_GE(phase->exclusive_seconds, 0.0) << path_name;
    self += phase->exclusive_seconds;
  }
  EXPECT_LE(self, caller->inclusive_seconds * (1 + 1e-9) + 1e-9);
  EXPECT_EQ(report.counter_total("io_text_bytes"),
            static_cast<double>(text.size()));
}

// ---------------------------------------------------------------------------
// .pbg binary format: round-trip, loader hardening, malformed-file fuzz.

std::string pbg_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in), {});
}

void spew(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

/// Re-seal the header after a deliberate header patch, so the test
/// reaches the targeted validation instead of the checksum gate.
void reseal_header(std::vector<std::uint8_t>& bytes) {
  constexpr std::size_t kOffHeaderChecksum = 0xc8;
  const std::uint64_t sum = io::pbg_checksum(bytes.data(), kOffHeaderChecksum);
  std::memcpy(bytes.data() + kOffHeaderChecksum, &sum, sizeof(sum));
}

void expect_rejects(const std::vector<std::uint8_t>& bytes,
                    const std::string& what, bool verify = true) {
  const std::string path = pbg_path("malformed.pbg");
  spew(path, bytes);
  io::MapOptions opt;
  opt.verify = verify;
  try {
    io::MappedGraph::map(path, opt);
    FAIL() << "expected rejection: " << what;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << "got: " << e.what();
  }
}

class PbgRoundTrip : public ::testing::TestWithParam<int> {
 protected:
  EdgeList input() const {
    switch (GetParam()) {
      case 0:
        return EdgeList(0, {});
      case 1:
        return EdgeList(5, {});  // isolated vertices only
      case 2:
        return gen::clique_chain(3, 4);
      case 3: {
        // Parallel edges allowed; strip self-loops (writer rejects).
        return remove_self_loops(gen::random_gnm(60, 150, 42));
      }
      default:
        return gen::star(8);
    }
  }
};

TEST_P(PbgRoundTrip, MappedViewsMatchSource) {
  const EdgeList g = input();
  Executor ex(4);
  Workspace ws;
  const std::string path = pbg_path("roundtrip.pbg");
  io::write_pbg(path, ex, g);

  io::MapOptions opt;
  opt.verify = true;
  const io::MappedGraph mapped = io::MappedGraph::map(path, opt);
  ASSERT_EQ(mapped.graph().n, g.n);
  ASSERT_EQ(mapped.graph().m(), g.m());
  // The edges section is the source edge list verbatim.
  for (eid e = 0; e < g.m(); ++e) {
    EXPECT_EQ(mapped.graph().edges[e].u, g.edges[e].u);
    EXPECT_EQ(mapped.graph().edges[e].v, g.edges[e].v);
  }
  // The mapped CSR is an adjacency of the same graph (canonical row
  // order, so compare rows as sorted sets against a fresh build).
  const Csr built = Csr::build(ex, ws, g);
  // (The n = 0 graph cannot distinguish borrowed from owned-empty.)
  if (g.n > 0) {
    ASSERT_TRUE(mapped.csr().is_borrowed());
  }
  for (vid v = 0; v < g.n; ++v) {
    ASSERT_EQ(mapped.csr().degree(v), built.degree(v));
    const auto ms = mapped.csr().neighbors(v);
    std::vector<vid> mine(ms.begin(), ms.end());
    const auto bs = built.neighbors(v);
    std::vector<vid> ref(bs.begin(), bs.end());
    ASSERT_TRUE(std::is_sorted(mine.begin(), mine.end()));
    std::sort(ref.begin(), ref.end());
    ASSERT_EQ(mine, ref) << "v=" << v;
    // Each arc's edge id names an edge incident to v.
    const auto eids = mapped.csr().incident_edges(v);
    for (std::size_t i = 0; i < eids.size(); ++i) {
      const Edge& e = g.edges[eids[i]];
      EXPECT_TRUE(e.u == v || e.v == v);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, PbgRoundTrip, ::testing::Range(0, 5));

TEST(Pbg, WriterRejectsSelfLoops) {
  Executor ex(1);
  const EdgeList g(3, {{0, 1}, {2, 2}});
  EXPECT_THROW(io::write_pbg(pbg_path("loops.pbg"), ex, g),
               std::runtime_error);
}

TEST(Pbg, WriterRejectsCompressedSections) {
  Executor ex(1);
  const EdgeList g(3, {{0, 1}, {1, 2}});
  EXPECT_THROW(io::write_pbg(pbg_path("compressed.pbg"), ex, g,
                             {.include_compressed = true}),
               std::invalid_argument);
}

TEST(Pbg, PrefaultedParallelMapSolvesIdentically) {
  const EdgeList g = gen::random_connected_gnm(400, 3000, 8);
  Executor ex(4);
  const std::string path = pbg_path("prefault.pbg");
  io::write_pbg(path, ex, g);

  Trace tr;
  io::MapOptions opt;
  opt.prefault = true;
  opt.executor = &ex;
  opt.trace = &tr;
  BccContext ctx(4);
  const PreparedGraph& pg = io::map_prepared_graph(ctx, path, opt);
  ASSERT_TRUE(pg.csr().is_borrowed());
  const TraceReport rep = tr.report();
  EXPECT_NE(rep.find_path("io_map"), nullptr);
  EXPECT_NE(rep.find_path("io_map/io_prefault"), nullptr);

  const BccResult from_map = biconnected_components(ctx, *ctx.mapped_graph());
  Executor in_memory_ex(1);
  const BccResult in_memory = testutil::solve(in_memory_ex, g);
  EXPECT_EQ(from_map.num_components, in_memory.num_components);
  EXPECT_TRUE(testutil::same_partition(from_map.edge_component,
                                       in_memory.edge_component));
  // Second solve on the adopted graph is a cache hit: conversion 0.
  const BccResult again = biconnected_components(ctx, *ctx.mapped_graph());
  EXPECT_EQ(again.times.conversion, 0.0);
}

TEST(Pbg, MappedSolveNeverMaterializesEdges) {
  // The zero-copy contract, pinned via EdgeStore's process-wide
  // materialization counter: solving a mapped graph must never reach a
  // non-const EdgeStore accessor (each such touch is a silent O(m)
  // heap copy of the mapped edges section).
  const EdgeList g = gen::random_connected_gnm(300, 1200, 9);
  Executor ex(4);
  const std::string path = pbg_path("zerocopy.pbg");
  io::write_pbg(path, ex, g);

  BccContext ctx(4);
  io::map_prepared_graph(ctx, path, {});
  ASSERT_TRUE(ctx.mapped_graph()->edges.is_borrowed());
  const std::size_t before = EdgeStore::materialize_count();
  for (const Engine alg :
       {Engine(paper::Algorithm::kTvFilter), Engine(BccAlgorithm::kFastBcc)}) {
    const BccResult r = testutil::solve(ctx, *ctx.mapped_graph(), alg);
    EXPECT_GT(r.num_components, 0u);
  }
  EXPECT_EQ(EdgeStore::materialize_count(), before);
  EXPECT_TRUE(ctx.mapped_graph()->edges.is_borrowed());
}

class PbgMalformed : public ::testing::Test {
 protected:
  void SetUp() override {
    Executor ex(2);
    const EdgeList g = gen::clique_chain(4, 5);
    io::write_pbg(valid_path_, ex, g);
    valid_ = slurp(valid_path_);
    ASSERT_GE(valid_.size(), 256u);
  }

  std::string valid_path_ = pbg_path("valid.pbg");
  std::vector<std::uint8_t> valid_;
};

TEST_F(PbgMalformed, TruncatedBelowHeader) {
  expect_rejects({}, "truncated");
  expect_rejects(std::vector<std::uint8_t>(100, 0), "truncated");
  expect_rejects({valid_.begin(), valid_.begin() + 255}, "truncated");
}

TEST_F(PbgMalformed, BadMagicAndVersion) {
  auto bytes = valid_;
  bytes[0] ^= 0xff;
  expect_rejects(bytes, "bad magic");

  bytes = valid_;
  bytes[0x08] = 99;  // version
  reseal_header(bytes);
  expect_rejects(bytes, "unsupported version");

  bytes = valid_;
  bytes[0x0c] |= 0x80;  // unknown flag bit
  reseal_header(bytes);
  expect_rejects(bytes, "unknown flag");
}

TEST_F(PbgMalformed, HeaderChecksumGuardsEveryHeaderField) {
  auto bytes = valid_;
  bytes[0x10] ^= 0x01;  // n, without resealing
  expect_rejects(bytes, "header checksum");
}

TEST_F(PbgMalformed, HostileCounts) {
  auto bytes = valid_;
  const std::uint32_t n = 0xffffffffu;  // aliases kNoVertex
  std::memcpy(bytes.data() + 0x10, &n, sizeof(n));
  reseal_header(bytes);
  expect_rejects(bytes, "vertex count");

  bytes = valid_;
  const std::uint64_t m = 0x80000000ull;  // 2m overflows eid space
  std::memcpy(bytes.data() + 0x18, &m, sizeof(m));
  reseal_header(bytes);
  expect_rejects(bytes, "edge count");
}

TEST_F(PbgMalformed, SectionTableAbuse) {
  // offsets section (table slot 1 at 0x20 + 24) pushed past EOF.
  auto bytes = valid_;
  const std::uint64_t huge = 1ull << 40;
  std::memcpy(bytes.data() + 0x20 + 24, &huge, sizeof(huge));
  reseal_header(bytes);
  expect_rejects(bytes, "past EOF");

  // Misaligned offset.
  bytes = valid_;
  std::uint64_t off;
  std::memcpy(&off, bytes.data() + 0x20 + 24, sizeof(off));
  off += 4;
  std::memcpy(bytes.data() + 0x20 + 24, &off, sizeof(off));
  reseal_header(bytes);
  expect_rejects(bytes, "misaligned");

  // Wrong size for a shape-determined section.
  bytes = valid_;
  std::uint64_t sz;
  std::memcpy(&sz, bytes.data() + 0x20 + 24 + 8, sizeof(sz));
  sz -= 4;
  std::memcpy(bytes.data() + 0x20 + 24 + 8, &sz, sizeof(sz));
  reseal_header(bytes);
  expect_rejects(bytes, "section size");

  // Reserved slots 4..6 must stay all zero, even when they point at
  // real data (here: a copy of the offsets descriptor).
  for (std::size_t slot = 4; slot < 7; ++slot) {
    bytes = valid_;
    std::memcpy(bytes.data() + 0x20 + slot * 24, bytes.data() + 0x20 + 24,
                16);
    reseal_header(bytes);
    expect_rejects(bytes, "unexpected reserved section present");
  }
}

TEST_F(PbgMalformed, NonMonotoneOffsetsRejectedWithoutVerify) {
  // Structural checks are always on: corrupt offsets[1] (first row
  // boundary) and expect the monotonicity scan to fire even with
  // verify=false.  The patch lives in section data, which the header
  // checksum does not cover — exactly the hole the scan closes.
  auto bytes = valid_;
  std::uint64_t off;
  std::memcpy(&off, bytes.data() + 0x20 + 24, sizeof(off));
  const std::uint32_t evil = 0xf0000000u;
  std::memcpy(bytes.data() + off + 4, &evil, sizeof(evil));
  expect_rejects(bytes, "monotone", /*verify=*/false);
}

TEST_F(PbgMalformed, VerifyCatchesSectionBitRot) {
  // Flip one bit in the targets section: structural checks cannot see
  // it (still a valid vertex id), the deep pass must.
  auto bytes = valid_;
  std::uint64_t off;
  std::memcpy(&off, bytes.data() + 0x20 + 2 * 24, sizeof(off));
  bytes[off] ^= 0x01;
  expect_rejects(bytes, "checksum", /*verify=*/true);
}

TEST_F(PbgMalformed, LegacyCompressedFlagRejectedByName) {
  // Older writers set flag bit 0 and appended Rice-compressed sections.
  // Forge such a header on a plain file and re-seal it: the loader must
  // name the flag and point at the converter, structural pass only.
  auto bytes = valid_;
  bytes[0x0c] |= 0x01;
  reseal_header(bytes);
  expect_rejects(bytes, "re-convert the graph with edgelist2pbg",
                 /*verify=*/false);
}

TEST_F(PbgMalformed, EveryByteFlipEitherRejectsOrIsBenignPadding) {
  // Deterministic whole-file fuzz: flip each byte in turn and map with
  // the deep pass.  Every flip must either throw a named error or —
  // only for inter-section zero padding, which no checksum covers —
  // yield a graph identical to the original.
  io::MapOptions opt;
  opt.verify = true;
  const io::MappedGraph ref = io::MappedGraph::map(valid_path_, opt);
  const std::string path = pbg_path("flip.pbg");
  int benign = 0;
  for (std::size_t i = 0; i < valid_.size(); ++i) {
    auto bytes = valid_;
    bytes[i] ^= 0xff;
    spew(path, bytes);
    try {
      const io::MappedGraph m = io::MappedGraph::map(path, opt);
      ASSERT_EQ(m.graph().n, ref.graph().n) << "byte " << i;
      ASSERT_EQ(m.graph().m(), ref.graph().m()) << "byte " << i;
      for (eid e = 0; e < ref.graph().m(); ++e) {
        ASSERT_EQ(m.graph().edges[e].u, ref.graph().edges[e].u);
        ASSERT_EQ(m.graph().edges[e].v, ref.graph().edges[e].v);
      }
      ++benign;
    } catch (const std::runtime_error&) {
      // Named rejection: the common (and desired) outcome.
    }
  }
  // Padding is a small minority of the file.
  EXPECT_LT(benign, static_cast<int>(valid_.size() / 4));
}

TEST_F(PbgMalformed, EveryTruncationRejects) {
  // The file ends exactly at its last section, so every proper prefix
  // chops real data and must be rejected (structural pass only — the
  // bounds checks, not the checksums, are the last line of defence).
  const std::string path = pbg_path("trunc.pbg");
  for (std::size_t len = 0; len < valid_.size();
       len += 61) {  // prime stride covers all regions
    spew(path, {valid_.begin(), valid_.begin() + len});
    EXPECT_THROW(io::MappedGraph::map(path), std::runtime_error)
        << "len=" << len;
  }
}

}  // namespace
}  // namespace parbcc
