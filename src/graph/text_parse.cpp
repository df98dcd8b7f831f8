#include "graph/text_parse.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <span>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/io.hpp"
#include "scan/compact.hpp"
#include "sort/radix_sort.hpp"
#include "util/workspace.hpp"

namespace parbcc::io {

namespace {

constexpr std::uint64_t kMaxEdges = 0x7fffffffull;
constexpr std::uint64_t kMaxVertices = 0xfffffffeull;

inline bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' ||
         c == '\f';
}

/// Scan an unsigned decimal at `p`; advances past it.  Returns false
/// on no digits or overflow past 2^64 / value cap.
inline bool scan_u64(const char*& p, const char* end, std::uint64_t& out) {
  const char* start = p;
  std::uint64_t v = 0;
  while (p < end && *p >= '0' && *p <= '9') {
    const std::uint64_t digit = static_cast<std::uint64_t>(*p - '0');
    if (v > (~std::uint64_t{0} - digit) / 10) return false;
    v = v * 10 + digit;
    ++p;
  }
  if (p == start) return false;
  out = v;
  return true;
}

inline void skip_blanks(const char*& p, const char* end) {
  while (p < end && (*p == ' ' || *p == '\t' || *p == '\r')) ++p;
}

/// Newline-aligned chunk boundaries over text[begin, text.size()):
/// chunk c covers [bounds[c], bounds[c+1]), every boundary sits just
/// past a '\n' (or at either extreme), so no line spans two chunks.
std::vector<std::size_t> chunk_bounds(std::string_view text,
                                      std::size_t begin, int chunks) {
  std::vector<std::size_t> bounds(static_cast<std::size_t>(chunks) + 1);
  const std::size_t body = text.size() - begin;
  bounds[0] = begin;
  for (int c = 1; c < chunks; ++c) {
    std::size_t pos =
        begin + (body * static_cast<std::size_t>(c)) /
                    static_cast<std::size_t>(chunks);
    // Align forward to the byte after the next newline.
    while (pos < text.size() && text[pos] != '\n') ++pos;
    if (pos < text.size()) ++pos;
    bounds[static_cast<std::size_t>(c)] = pos;
  }
  bounds[static_cast<std::size_t>(chunks)] = text.size();
  for (int c = 1; c <= chunks; ++c) {
    bounds[static_cast<std::size_t>(c)] = std::max(
        bounds[static_cast<std::size_t>(c)], bounds[static_cast<std::size_t>(c - 1)]);
  }
  return bounds;
}

int pick_chunks(Executor& ex, std::size_t body_bytes) {
  // ~4 chunks per worker amortizes the fork; tiny bodies parse in one.
  constexpr std::size_t kMinChunkBytes = 1 << 14;
  const std::size_t by_size = body_bytes / kMinChunkBytes;
  const std::size_t by_threads = static_cast<std::size_t>(ex.threads()) * 4;
  return static_cast<int>(std::clamp<std::size_t>(
      std::min(by_size, by_threads), 1, 256));
}

struct ChunkError {
  bool failed = false;
  std::string message;
};

/// Run `parse_line(p, line_end, chunk_sink)` over every nonempty line
/// of every chunk in parallel; chunk-ordered sinks preserve file
/// order.  The first error per chunk is captured, the earliest chunk's
/// error rethrown (workers never throw across the pool).
template <typename Sink, typename ParseLine>
void parse_chunks(Executor& ex, std::string_view text, std::size_t begin,
                  int chunks, std::vector<Sink>& sinks,
                  const ParseLine& parse_line, const char* format_name) {
  const std::vector<std::size_t> bounds = chunk_bounds(text, begin, chunks);
  sinks.assign(static_cast<std::size_t>(chunks), Sink{});
  std::vector<ChunkError> errors(static_cast<std::size_t>(chunks));
  ex.parallel_for(0, static_cast<std::size_t>(chunks), 1,
                  [&](std::size_t c) {
    const char* p = text.data() + bounds[c];
    const char* chunk_end = text.data() + bounds[c + 1];
    Sink& sink = sinks[c];
    while (p < chunk_end) {
      const char* line_end = p;
      while (line_end < chunk_end && *line_end != '\n') ++line_end;
      const char* q = p;
      skip_blanks(q, line_end);
      if (q < line_end && *q != '#') {
        if (!parse_line(q, line_end, sink)) {
          errors[c].failed = true;
          errors[c].message =
              std::string(format_name) + ": malformed line \"" +
              std::string(p, static_cast<std::size_t>(
                                 std::min<std::ptrdiff_t>(line_end - p, 80))) +
              "\"";
          return;
        }
      }
      p = line_end < chunk_end ? line_end + 1 : chunk_end;
    }
  });
  for (const ChunkError& e : errors) {
    if (e.failed) throw std::runtime_error(e.message);
  }
}

/// Concatenate per-chunk edge buffers in chunk order.
std::vector<Edge> concat_edges(Executor& ex,
                               const std::vector<std::vector<Edge>>& parts) {
  std::vector<std::size_t> offset(parts.size() + 1, 0);
  for (std::size_t c = 0; c < parts.size(); ++c) {
    offset[c + 1] = offset[c] + parts[c].size();
  }
  std::vector<Edge> out(offset.back());
  ex.parallel_for(0, parts.size(), 1, [&](std::size_t c) {
    std::copy(parts[c].begin(), parts[c].end(), out.begin() + offset[c]);
  });
  return out;
}

/// First non-comment, non-blank line of `text`; start receives its
/// begin offset, the return is one past its newline (body start).
bool header_line(std::string_view text, std::size_t& start,
                 std::size_t& body) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t line_end = text.find('\n', pos);
    if (line_end == std::string_view::npos) line_end = text.size();
    const char* q = text.data() + pos;
    const char* qe = text.data() + line_end;
    skip_blanks(q, qe);
    if (q < qe && *q != '#') {
      start = static_cast<std::size_t>(q - text.data());
      body = line_end < text.size() ? line_end + 1 : text.size();
      return true;
    }
    pos = line_end + 1;
  }
  return false;
}

/// The whole of `path` in one buffer: open / fstat / read until EOF
/// (so pipes work too), retrying EINTR.  Every failure — including a
/// read error such as EISDIR — throws naming the path.
std::string read_file(const std::string& path) {
  struct FdGuard {
    int fd = -1;
    ~FdGuard() {
      if (fd >= 0) ::close(fd);
    }
  } file;
  const auto fail = [&](const char* what) {
    const int err = errno;
    throw std::runtime_error(std::string(what) + " " + path + ": " +
                             std::strerror(err));
  };
  file.fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (file.fd < 0) fail("cannot open");
  struct stat st{};
  if (::fstat(file.fd, &st) != 0) fail("cannot read");
  // One spare byte, so a regular file's EOF read needs no growth.
  std::string text(static_cast<std::size_t>(st.st_size) + 1, '\0');
  std::size_t len = 0;
  for (;;) {
    if (len == text.size()) text.resize(2 * text.size());
    const ssize_t got = ::read(file.fd, text.data() + len, text.size() - len);
    if (got < 0) {
      if (errno == EINTR) continue;
      fail("cannot read");
    }
    if (got == 0) break;
    len += static_cast<std::size_t>(got);
  }
  text.resize(len);
  return text;
}

}  // namespace

EdgeList parse_edge_list(Executor& ex, std::string_view text) {
  std::size_t header_at = 0;
  std::size_t body = 0;
  if (!header_line(text, header_at, body)) {
    throw std::runtime_error("edge list: missing header line");
  }
  const char* hp = text.data() + header_at;
  const char* hend = text.data() + text.size();
  std::uint64_t n64 = 0;
  std::uint64_t m64 = 0;
  if (!scan_u64(hp, hend, n64)) {
    throw std::runtime_error("edge list: bad vertex count in header");
  }
  skip_blanks(hp, hend);
  if (!scan_u64(hp, hend, m64)) {
    throw std::runtime_error("edge list: bad edge count in header");
  }
  if (n64 > kMaxVertices) {
    throw std::runtime_error("edge list: vertex count " +
                             std::to_string(n64) +
                             " exceeds the 32-bit id space");
  }
  if (m64 > kMaxEdges) {
    throw std::runtime_error("edge list: edge count " + std::to_string(m64) +
                             " exceeds 2^31 - 1");
  }
  const vid n = static_cast<vid>(n64);

  const int chunks = pick_chunks(ex, text.size() - body);
  std::vector<std::vector<Edge>> parts;
  parse_chunks(
      ex, text, body, chunks, parts,
      [n](const char*& q, const char* line_end, std::vector<Edge>& sink) {
        std::uint64_t u = 0;
        std::uint64_t v = 0;
        if (!scan_u64(q, line_end, u)) return false;
        skip_blanks(q, line_end);
        if (!scan_u64(q, line_end, v)) return false;
        skip_blanks(q, line_end);
        if (q != line_end) return false;
        if (u >= n || v >= n) return false;
        sink.push_back({static_cast<vid>(u), static_cast<vid>(v)});
        return true;
      },
      "edge list");

  EdgeList g;
  g.n = n;
  g.edges = EdgeStore(concat_edges(ex, parts));
  if (g.m() != m64) {
    throw std::runtime_error("edge list: header declares " +
                             std::to_string(m64) + " edges but the body has " +
                             std::to_string(g.m()));
  }
  return g;
}

EdgeList parse_dimacs(Executor& ex, std::string_view text) {
  // DIMACS comments are 'c' lines, the header is "p edge n m"; find it
  // serially (it is one line), then parse the 'e' body in parallel.
  std::size_t pos = 0;
  std::uint64_t n64 = 0;
  std::uint64_t m64 = 0;
  bool have_p = false;
  std::size_t body = 0;
  while (pos < text.size() && !have_p) {
    std::size_t line_end = text.find('\n', pos);
    if (line_end == std::string_view::npos) line_end = text.size();
    const char* q = text.data() + pos;
    const char* qe = text.data() + line_end;
    skip_blanks(q, qe);
    if (q < qe && *q == 'p') {
      ++q;
      skip_blanks(q, qe);
      while (q < qe && !is_space(*q)) ++q;  // the "edge" tag
      skip_blanks(q, qe);
      if (!scan_u64(q, qe, n64)) {
        throw std::runtime_error("dimacs: bad vertex count in p line");
      }
      skip_blanks(q, qe);
      if (!scan_u64(q, qe, m64)) {
        throw std::runtime_error("dimacs: bad edge count in p line");
      }
      have_p = true;
      body = line_end < text.size() ? line_end + 1 : text.size();
    } else if (q < qe && *q != 'c' && *q != '#') {
      throw std::runtime_error("dimacs: expected 'c' or 'p' before body");
    }
    pos = line_end + 1;
  }
  if (!have_p) throw std::runtime_error("dimacs: missing p line");
  if (n64 > kMaxVertices) {
    throw std::runtime_error("dimacs: vertex count " + std::to_string(n64) +
                             " exceeds the 32-bit id space");
  }
  if (m64 > kMaxEdges) {
    throw std::runtime_error("dimacs: edge count " + std::to_string(m64) +
                             " exceeds 2^31 - 1");
  }
  const vid n = static_cast<vid>(n64);

  const int chunks = pick_chunks(ex, text.size() - body);
  std::vector<std::vector<Edge>> parts;
  parse_chunks(
      ex, text, body, chunks, parts,
      [n](const char*& q, const char* line_end, std::vector<Edge>& sink) {
        if (*q == 'c') return true;  // body comments allowed
        if (*q != 'e') return false;
        ++q;
        skip_blanks(q, line_end);
        std::uint64_t u = 0;
        std::uint64_t v = 0;
        if (!scan_u64(q, line_end, u)) return false;
        skip_blanks(q, line_end);
        if (!scan_u64(q, line_end, v)) return false;
        if (u == 0 || v == 0 || u > n || v > n) return false;  // 1-based
        sink.push_back({static_cast<vid>(u - 1), static_cast<vid>(v - 1)});
        return true;
      },
      "dimacs");

  EdgeList g;
  g.n = n;
  g.edges = EdgeStore(concat_edges(ex, parts));
  if (g.m() != m64) {
    throw std::runtime_error("dimacs: p line declares " +
                             std::to_string(m64) + " edges but the body has " +
                             std::to_string(g.m()));
  }
  return g;
}

EdgeList parse_snap(Executor& ex, std::string_view text, Trace* trace) {
  struct RawEdge {
    std::uint64_t u;
    std::uint64_t v;
  };
  const int chunks = pick_chunks(ex, text.size());
  std::vector<std::vector<RawEdge>> parts;
  parse_chunks(
      ex, text, 0, chunks, parts,
      [](const char*& q, const char* line_end, std::vector<RawEdge>& sink) {
        std::uint64_t u = 0;
        std::uint64_t v = 0;
        if (!scan_u64(q, line_end, u)) return false;
        skip_blanks(q, line_end);
        if (!scan_u64(q, line_end, v)) return false;
        sink.push_back({u, v});
        return true;
      },
      "snap");

  // Densify: sorted unique ids become [0, n).  Endpoint 2e / 2e + 1 is
  // edge e's u / v; the cap keeps every endpoint position in a u32.
  TraceSpan densify_span(trace, "io_densify");
  std::vector<std::size_t> offset(parts.size() + 1, 0);
  for (std::size_t c = 0; c < parts.size(); ++c) {
    offset[c + 1] = offset[c] + parts[c].size();
  }
  const std::size_t total = offset.back();
  if (total > kMaxEdges) {
    throw std::runtime_error("snap: edge count " + std::to_string(total) +
                             " exceeds 2^31 - 1");
  }
  const std::size_t ends = 2 * total;
  Workspace ws;
  std::span<vid> dense = ws.alloc<vid>(ends);
  vid n = 0;
  {
    Workspace::Frame frame(ws);
    std::span<std::uint64_t> ids = ws.alloc<std::uint64_t>(ends);
    std::span<std::uint32_t> at = ws.alloc<std::uint32_t>(ends);
    ex.parallel_for(0, parts.size(), 1, [&](std::size_t c) {
      std::size_t k = 2 * offset[c];
      for (const RawEdge& e : parts[c]) {
        ids[k] = e.u;
        at[k] = static_cast<std::uint32_t>(k);
        ids[k + 1] = e.v;
        at[k + 1] = static_cast<std::uint32_t>(k + 1);
        k += 2;
      }
    });
    parts = {};
    // Sort (id, position) pairs; each run of equal ids is one vertex,
    // ranked by counting run heads (per block, scanned, then written
    // through the carried position).
    radix_sort_kv(ex, ws, ids, at);
    const auto head = [&](std::size_t i) {
      return i == 0 || ids[i] != ids[i - 1];
    };
    std::vector<std::size_t> base(static_cast<std::size_t>(ex.threads()), 0);
    ex.parallel_blocks(ends, [&](int tid, std::size_t b, std::size_t e) {
      std::size_t heads = 0;
      for (std::size_t i = b; i < e; ++i) heads += head(i) ? 1 : 0;
      base[static_cast<std::size_t>(tid)] = heads;
    });
    std::size_t distinct = 0;
    for (std::size_t& b : base) distinct += std::exchange(b, distinct);
    if (distinct > kMaxVertices) {
      throw std::runtime_error("snap: distinct id count " +
                               std::to_string(distinct) +
                               " exceeds the 32-bit id space");
    }
    ex.parallel_blocks(ends, [&](int tid, std::size_t b, std::size_t e) {
      std::size_t rank = base[static_cast<std::size_t>(tid)];
      for (std::size_t i = b; i < e; ++i) {
        rank += head(i) ? 1 : 0;
        dense[at[i]] = static_cast<vid>(rank - 1);
      }
    });
    n = static_cast<vid>(distinct);
  }

  // Canonicalize each arc as lo * n + hi (the (lo, hi) order), send
  // loops past every such key, sort, and keep the first copy of each
  // non-loop key: SNAP arc lists carry both directions of an
  // undirected edge.  n <= 2^32 - 2, so n * n fits in 64 bits.
  const std::uint64_t n64 = n;
  const std::uint64_t loop_key = n64 * n64;
  std::vector<std::uint64_t> keys(total);
  ex.parallel_for(total, [&](std::size_t e) {
    const vid u = dense[2 * e];
    const vid v = dense[2 * e + 1];
    keys[e] = u == v ? loop_key
                     : std::uint64_t{std::min(u, v)} * n64 + std::max(u, v);
  });
  radix_sort_u64(ex, ws, keys);
  std::vector<Edge> edges(total);
  const std::size_t m = pack_into(
      ex, ws, total,
      [&](std::size_t i) {
        return keys[i] != loop_key && (i == 0 || keys[i] != keys[i - 1]);
      },
      [&](std::size_t dst, std::size_t i) {
        edges[dst] = {static_cast<vid>(keys[i] / n64),
                      static_cast<vid>(keys[i] % n64)};
      });
  edges.resize(m);
  edges.shrink_to_fit();

  EdgeList g;
  g.n = n;
  g.edges = EdgeStore(std::move(edges));
  return g;
}

EdgeList read_text_graph(Executor& ex, const std::string& path,
                         TextFormat format, Trace* trace) {
  TraceSpan read_span(trace, "io_read");
  const std::string text = read_file(path);
  read_span.close();
  if (trace != nullptr) {
    trace->counter("io_text_bytes", static_cast<double>(text.size()));
  }
  TraceSpan parse_span(trace, "io_parse");

  if (format == TextFormat::kAuto) {
    // DIMACS announces itself with c/p lines; a '#'-commented file
    // with no "n m" header is SNAP; a bare two-column body with no
    // header is SNAP too (an edge-list header is two ints, but so is
    // an edge — the header-count cross-check disambiguates: try edge
    // list first, fall back).
    std::size_t at = 0;
    std::size_t body = 0;
    if (!text.empty() && (text[0] == 'c' || text[0] == 'p')) {
      format = TextFormat::kDimacs;
    } else if (header_line(text, at, body)) {
      try {
        return parse_edge_list(ex, text);
      } catch (const std::runtime_error&) {
        format = TextFormat::kSnap;
      }
    } else {
      format = TextFormat::kSnap;
    }
  }
  switch (format) {
    case TextFormat::kEdgeList:
      return parse_edge_list(ex, text);
    case TextFormat::kDimacs:
      return parse_dimacs(ex, text);
    case TextFormat::kSnap:
      return parse_snap(ex, text, trace);
    case TextFormat::kMetis: {
      std::istringstream stream(text);
      return read_metis(stream);
    }
    case TextFormat::kAuto:
      break;  // unreachable
  }
  throw std::runtime_error("unreachable text format");
}

}  // namespace parbcc::io
