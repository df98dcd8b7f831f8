#include "graph/io_binary.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "util/uninit.hpp"
#include "util/workspace.hpp"

namespace parbcc::io {

namespace {

static_assert(sizeof(Edge) == 8 && alignof(Edge) == 4,
              "the edges section assumes Edge is two packed u32s");
static_assert(sizeof(eid) == 4 && sizeof(vid) == 4,
              "the .pbg layout is specified for 32-bit ids");

/// Slots 4..6 of the section table are reserved and must be all zero.
enum Section : std::size_t {
  kSecEdges = 0,
  kSecOffsets = 1,
  kSecTargets = 2,
  kSecEids = 3,
  kSecPresent = 4,  // slots [0, kSecPresent) carry data
  kSecCount = 7,
};

/// Flag bit 0 marked the Rice-compressed adjacency sections (slots 4
/// and 5) that older writers emitted.  Such files are rejected by name
/// so the user knows to re-convert them.
constexpr std::uint32_t kFlagLegacyCompressed = 1u << 0;

constexpr std::size_t kOffMagic = 0x00;
constexpr std::size_t kOffVersion = 0x08;
constexpr std::size_t kOffFlags = 0x0c;
constexpr std::size_t kOffN = 0x10;
constexpr std::size_t kOffM = 0x18;
constexpr std::size_t kOffSections = 0x20;
constexpr std::size_t kOffHeaderChecksum =
    kOffSections + kSecCount * 24;  // 0xc8
static_assert(kOffHeaderChecksum + 8 <= kPbgHeaderBytes);

/// 2m arcs must fit an eid, and n must stay clear of the kNoVertex
/// sentinel — the same 32-bit-id-space rules io::read_edge_list
/// enforces on text input.
constexpr std::uint64_t kMaxEdges = 0x7fffffffull;
constexpr std::uint64_t kMaxVertices = 0xfffffffeull;

struct SectionDesc {
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  std::uint64_t checksum = 0;
};

template <typename T>
void store(std::uint8_t* base, std::size_t off, T value) {
  std::memcpy(base + off, &value, sizeof(T));
}

template <typename T>
T load(const std::uint8_t* base, std::size_t off) {
  T value;
  std::memcpy(&value, base + off, sizeof(T));
  return value;
}

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("pbg: " + path + ": " + what);
}

constexpr std::uint64_t align64(std::uint64_t x) { return (x + 63) & ~63ull; }

/// Canonical per-row order: (neighbour, edge id) ascending.  Csr::build
/// lays rows out in an order that depends on the thread count, so this
/// sort is what makes the file byte-deterministic: one graph converts
/// to the same bytes at any width.  Sorting both halves through one
/// packed u64 keeps the nbr/eid pairing intact.
void canonicalize_rows(Executor& ex, const Csr& csr, uvector<vid>& nbrs_out,
                       uvector<eid>& eids_out) {
  const vid n = csr.num_vertices();
  const std::span<const eid> offsets = csr.offsets();
  const std::size_t num_arcs = offsets.empty() ? 0 : offsets[n];
  uvector<std::uint64_t> packed(num_arcs);
  nbrs_out.resize(num_arcs);
  eids_out.resize(num_arcs);
  ex.parallel_for(n, [&](std::size_t v) {
    const eid lo = offsets[v];
    const eid deg = offsets[v + 1] - lo;
    const auto nbrs = csr.neighbors(static_cast<vid>(v));
    const auto eids = csr.incident_edges(static_cast<vid>(v));
    for (eid j = 0; j < deg; ++j) {
      packed[lo + j] =
          (static_cast<std::uint64_t>(nbrs[j]) << 32) | eids[j];
    }
    std::sort(packed.begin() + lo, packed.begin() + lo + deg);
    for (eid j = 0; j < deg; ++j) {
      nbrs_out[lo + j] = static_cast<vid>(packed[lo + j] >> 32);
      eids_out[lo + j] = static_cast<eid>(packed[lo + j]);
    }
  });
}

/// Closes fd / unmaps on scope exit unless released.
struct MapGuard {
  int fd = -1;
  void* base = nullptr;
  std::size_t length = 0;
  ~MapGuard() {
    if (base != nullptr) ::munmap(base, length);
    if (fd >= 0) ::close(fd);
  }
  void release_mapping() { base = nullptr; }
};

}  // namespace

std::uint64_t pbg_checksum(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t h = 0x9e3779b97f4a7c15ull ^ bytes;
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::uint64_t x;
    std::memcpy(&x, p + i, 8);
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 31;
    h = (h ^ x) * 0x94d049bb133111ebull;
  }
  if (i < bytes) {
    std::uint64_t tail = 0;
    std::memcpy(&tail, p + i, bytes - i);
    tail *= 0xbf58476d1ce4e5b9ull;
    tail ^= tail >> 31;
    h = (h ^ tail) * 0x94d049bb133111ebull;
  }
  h ^= h >> 29;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 32;
  return h;
}

void write_pbg(const std::string& path, Executor& ex, const EdgeList& g,
               const PbgWriteOptions& opt) {
  if (opt.include_compressed) {
    throw std::invalid_argument(
        "write_pbg: PbgWriteOptions::include_compressed is no longer "
        "supported (the .pbg writer emits plain CSR only)");
  }
  if (!g.validate()) {
    fail(path, "edge list invalid (out-of-range endpoint or self-loop)");
  }
  if (g.n > kMaxVertices) fail(path, "vertex count exceeds the 32-bit id space");
  if (g.m() > kMaxEdges) fail(path, "edge count exceeds 2^31 - 1");

  Workspace ws;
  const Csr built = Csr::build(ex, ws, g);
  uvector<vid> nbrs;
  uvector<eid> eids;
  canonicalize_rows(ex, built, nbrs, eids);

  std::array<std::pair<const void*, std::uint64_t>, kSecCount> payload{};
  payload[kSecEdges] = {g.edges.data(), g.edges.size() * sizeof(Edge)};
  payload[kSecOffsets] = {built.offsets().data(),
                          built.offsets().size() * sizeof(eid)};
  payload[kSecTargets] = {nbrs.data(), nbrs.size() * sizeof(vid)};
  payload[kSecEids] = {eids.data(), eids.size() * sizeof(eid)};

  std::array<SectionDesc, kSecCount> sections{};
  std::uint64_t cursor = kPbgHeaderBytes;
  for (std::size_t s = 0; s < kSecCount; ++s) {
    const auto [ptr, bytes] = payload[s];
    if (ptr == nullptr && bytes == 0 && s != kSecOffsets) {
      // Reserved slot, or an unallocated empty array of an empty
      // graph: all-zero descriptor.
      continue;
    }
    sections[s].offset = cursor;
    sections[s].bytes = bytes;
    sections[s].checksum = pbg_checksum(ptr, bytes);
    cursor = align64(cursor + bytes);
  }

  std::array<std::uint8_t, kPbgHeaderBytes> header{};
  store<std::uint64_t>(header.data(), kOffMagic, kPbgMagic);
  store<std::uint32_t>(header.data(), kOffVersion, kPbgVersion);
  store<std::uint32_t>(header.data(), kOffFlags, 0);
  store<std::uint32_t>(header.data(), kOffN, g.n);
  store<std::uint64_t>(header.data(), kOffM, g.m());
  for (std::size_t s = 0; s < kSecCount; ++s) {
    store<std::uint64_t>(header.data(), kOffSections + s * 24,
                         sections[s].offset);
    store<std::uint64_t>(header.data(), kOffSections + s * 24 + 8,
                         sections[s].bytes);
    store<std::uint64_t>(header.data(), kOffSections + s * 24 + 16,
                         sections[s].checksum);
  }
  store<std::uint64_t>(header.data(), kOffHeaderChecksum,
                       pbg_checksum(header.data(), kOffHeaderChecksum));

  // Atomic publish: write a sibling temp file, rename over the target.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) fail(tmp, std::strerror(errno));
  const auto put = [&](const void* p, std::size_t bytes) {
    if (bytes != 0 && std::fwrite(p, 1, bytes, f) != bytes) {
      std::fclose(f);
      std::remove(tmp.c_str());
      fail(tmp, "short write");
    }
  };
  static constexpr std::uint8_t zeros[64] = {};
  put(header.data(), header.size());
  std::uint64_t written = kPbgHeaderBytes;
  for (std::size_t s = 0; s < kSecCount; ++s) {
    if (sections[s].offset == 0) continue;
    put(zeros, sections[s].offset - written);
    put(payload[s].first, sections[s].bytes);
    written = sections[s].offset + sections[s].bytes;
  }
  if (std::fclose(f) != 0) {
    std::remove(tmp.c_str());
    fail(tmp, "close failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    fail(path, "rename failed");
  }
}

MappedGraph& MappedGraph::operator=(MappedGraph&& o) noexcept {
  if (this != &o) {
    if (base_ != nullptr) ::munmap(base_, length_);
    base_ = o.base_;
    length_ = o.length_;
    graph_ = std::move(o.graph_);
    csr_ = std::move(o.csr_);
    o.base_ = nullptr;
    o.length_ = 0;
  }
  return *this;
}

MappedGraph::~MappedGraph() {
  if (base_ != nullptr) ::munmap(base_, length_);
}

MappedGraph MappedGraph::map(const std::string& path, const MapOptions& opt) {
  Trace* tr = opt.trace;
  if (tr != nullptr) tr->begin("io_map");
  // Close the span on every exit, including the throwing ones — the
  // bench traces failed loads too.
  struct SpanGuard {
    Trace* tr;
    ~SpanGuard() {
      if (tr != nullptr) tr->end("io_map");
    }
  } span_guard{tr};

  MapGuard guard;
  guard.fd = ::open(path.c_str(), O_RDONLY);
  if (guard.fd < 0) fail(path, std::strerror(errno));
  struct stat st{};
  if (::fstat(guard.fd, &st) != 0) fail(path, std::strerror(errno));
  const auto file_bytes = static_cast<std::uint64_t>(st.st_size);
  if (file_bytes < kPbgHeaderBytes) {
    fail(path, "truncated: file smaller than the 256-byte header");
  }
  void* base = ::mmap(nullptr, file_bytes, PROT_READ, MAP_PRIVATE, guard.fd,
                      0);
  if (base == MAP_FAILED) fail(path, std::strerror(errno));
  guard.base = base;
  guard.length = file_bytes;
  const auto* bytes = static_cast<const std::uint8_t*>(base);

  // --- Header validation: everything below runs before any allocation
  // and before trusting a single section byte. ---
  if (load<std::uint64_t>(bytes, kOffMagic) != kPbgMagic) {
    fail(path, "bad magic (not a .pbg file)");
  }
  const auto version = load<std::uint32_t>(bytes, kOffVersion);
  if (version != kPbgVersion) {
    fail(path, "unsupported version " + std::to_string(version));
  }
  if (load<std::uint64_t>(bytes, kOffHeaderChecksum) !=
      pbg_checksum(bytes, kOffHeaderChecksum)) {
    fail(path, "header checksum mismatch");
  }
  const auto flags = load<std::uint32_t>(bytes, kOffFlags);
  if ((flags & kFlagLegacyCompressed) != 0) {
    fail(path,
         "compressed-adjacency sections (flag bit 0) are no longer "
         "supported; re-convert the graph with edgelist2pbg");
  }
  if (flags != 0) fail(path, "unknown flag bits set");
  const auto n64 = static_cast<std::uint64_t>(load<std::uint32_t>(bytes, kOffN));
  const auto m64 = load<std::uint64_t>(bytes, kOffM);
  if (n64 > kMaxVertices) {
    fail(path, "vertex count " + std::to_string(n64) +
                   " exceeds the 32-bit id space");
  }
  if (m64 > kMaxEdges) {
    fail(path, "edge count " + std::to_string(m64) + " exceeds 2^31 - 1");
  }
  const auto n = static_cast<vid>(n64);
  const auto m = static_cast<eid>(m64);
  const std::uint64_t num_arcs = 2 * m64;

  std::array<SectionDesc, kSecCount> sections{};
  for (std::size_t s = 0; s < kSecCount; ++s) {
    sections[s].offset = load<std::uint64_t>(bytes, kOffSections + s * 24);
    sections[s].bytes = load<std::uint64_t>(bytes, kOffSections + s * 24 + 8);
    sections[s].checksum =
        load<std::uint64_t>(bytes, kOffSections + s * 24 + 16);
  }
  const std::array<std::uint64_t, kSecPresent> expected_bytes = {
      m64 * sizeof(Edge), (n64 + 1) * sizeof(eid), num_arcs * sizeof(vid),
      num_arcs * sizeof(eid)};
  static constexpr const char* kSectionNames[kSecCount] = {
      "edges", "offsets", "targets", "eids", "reserved", "reserved",
      "reserved"};
  for (std::size_t s = 0; s < kSecCount; ++s) {
    const SectionDesc& sec = sections[s];
    if (s >= kSecPresent) {
      if (sec.offset != 0 || sec.bytes != 0) {
        fail(path, std::string("unexpected ") + kSectionNames[s] +
                       " section present");
      }
      continue;
    }
    if (sec.bytes != expected_bytes[s]) {
      fail(path, std::string(kSectionNames[s]) + " section size " +
                     std::to_string(sec.bytes) + " does not match header n/m");
    }
    // A present zero-length section (empty graph) may sit at offset 0.
    if (sec.bytes == 0) continue;
    if (sec.offset < kPbgHeaderBytes || (sec.offset & 63) != 0) {
      fail(path, std::string(kSectionNames[s]) + " section misaligned");
    }
    if (sec.offset > file_bytes || sec.bytes > file_bytes - sec.offset) {
      fail(path, std::string(kSectionNames[s]) + " section extends past EOF");
    }
  }

  // --- Structural validation (O(n), still allocation-free): the
  // offsets shape everything downstream indexes by. ---
  const auto* offsets =
      reinterpret_cast<const eid*>(bytes + sections[kSecOffsets].offset);
  if (offsets[0] != 0 || offsets[n] != num_arcs) {
    fail(path, "offsets section does not span 2m arcs");
  }
  for (vid v = 0; v < n; ++v) {
    if (offsets[v] > offsets[v + 1]) {
      fail(path, "offsets section is not monotone at vertex " +
                     std::to_string(v));
    }
  }

  // --- Optional deep verification: section checksums and per-element
  // range checks (faults the whole file in). ---
  if (opt.verify) {
    for (std::size_t s = 0; s < kSecCount; ++s) {
      if (sections[s].offset == 0 && sections[s].bytes == 0) continue;
      if (pbg_checksum(bytes + sections[s].offset, sections[s].bytes) !=
          sections[s].checksum) {
        fail(path,
             std::string(kSectionNames[s]) + " section checksum mismatch");
      }
    }
    const auto* edges =
        reinterpret_cast<const Edge*>(bytes + sections[kSecEdges].offset);
    for (eid e = 0; e < m; ++e) {
      if (edges[e].u >= n || edges[e].v >= n || edges[e].u == edges[e].v) {
        fail(path, "edge " + std::to_string(e) +
                       " has an out-of-range endpoint or is a self-loop");
      }
    }
    const auto* targets =
        reinterpret_cast<const vid*>(bytes + sections[kSecTargets].offset);
    const auto* arc_eids =
        reinterpret_cast<const eid*>(bytes + sections[kSecEids].offset);
    for (std::uint64_t a = 0; a < num_arcs; ++a) {
      if (targets[a] >= n) {
        fail(path, "targets section has an out-of-range vertex at arc " +
                       std::to_string(a));
      }
      if (arc_eids[a] >= m) {
        fail(path, "eids section has an out-of-range edge id at arc " +
                       std::to_string(a));
      }
    }
  }

  MappedGraph out;
  out.base_ = base;
  out.length_ = file_bytes;
  guard.release_mapping();
  out.graph_.n = n;
  out.graph_.edges = EdgeStore::borrow(
      {reinterpret_cast<const Edge*>(bytes + sections[kSecEdges].offset), m});
  out.csr_ = Csr::adopt(
      n, m, {offsets, static_cast<std::size_t>(n) + 1},
      {reinterpret_cast<const vid*>(bytes + sections[kSecTargets].offset),
       static_cast<std::size_t>(num_arcs)},
      {reinterpret_cast<const eid*>(bytes + sections[kSecEids].offset),
       static_cast<std::size_t>(num_arcs)});
  if (tr != nullptr) {
    tr->counter("io_mapped_bytes", static_cast<double>(file_bytes));
  }

  if (opt.prefault) {
    if (tr != nullptr) tr->begin("io_prefault");
    constexpr std::size_t kPage = 4096;
    const std::size_t pages = (out.length_ + kPage - 1) / kPage;
    const auto* touch_base = static_cast<const std::uint8_t*>(out.base_);
    const auto touch = [&](std::size_t pg) {
      // Volatile read defeats dead-load elimination; one byte per page
      // is enough to fault it in.
      (void)*static_cast<const volatile std::uint8_t*>(touch_base +
                                                       pg * kPage);
    };
    if (opt.executor != nullptr) {
      opt.executor->parallel_for(0, pages, /*grain=*/64, touch);
    } else {
      for (std::size_t pg = 0; pg < pages; ++pg) touch(pg);
    }
    if (tr != nullptr) {
      tr->counter("io_prefault_bytes", static_cast<double>(out.length_));
      tr->end("io_prefault");
    }
  }
  return out;
}

}  // namespace parbcc::io
