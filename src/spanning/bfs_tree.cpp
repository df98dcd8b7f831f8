#include "spanning/bfs_tree.hpp"

#include <algorithm>
#include <atomic>

#include "scan/compact.hpp"
#include "util/bitvector.hpp"
#include "util/concat.hpp"
#include "util/padded.hpp"

namespace parbcc {
namespace {

/// Beamer's switching constants: go bottom-up when the frontier's
/// degree sum exceeds 1/alpha of the arcs still incident to
/// undiscovered vertices; return top-down when the frontier shrinks
/// below n/beta vertices.  The classic GAP/Beamer values work well
/// here: the cost model (inspections saved vs. a full pass over the
/// unvisited set) is machine-independent.
constexpr std::uint64_t kAlpha = 14;
constexpr std::uint64_t kBeta = 24;

/// Under work-stealing, a vertex whose degree exceeds twice this grain
/// has its edge loop run as a nested parallel region (per-vertex inner
/// parallel_for, the parlay/PASGAL idiom) instead of serially on the
/// worker that drew it.
constexpr std::size_t kInnerGrain = 1024;

struct HubProbe {
  std::size_t hit;
  std::uint64_t probes;
};

/// Out-of-line hub probe for bottom-up rounds: chunks of a high-degree
/// adjacency race to the *minimum-index* frontier hit, so the chosen
/// parent matches the serial scan.  Deliberately noinline and
/// value-in / value-out: inlined into the per-word lambda, its inner
/// closure captured the hot probe loop's accumulators by reference,
/// which pinned them to the stack for every word — including the vast
/// majority that never see a hub.
[[gnu::noinline]] HubProbe hub_probe(Executor& ex, const BitSpan& bits,
                                     std::span<const vid> nbrs) {
  const std::size_t deg = nbrs.size();
  const std::size_t chunks = deg / kInnerGrain;
  std::atomic<std::size_t> first_hit{deg};
  std::atomic<std::uint64_t> probes{0};
  ex.parallel_for(0, chunks, 1, [&](std::size_t c) {
    const auto [jb, je] = Executor::block_range(deg, static_cast<int>(chunks),
                                                static_cast<int>(c));
    std::uint64_t local_probes = 0;
    for (std::size_t j = jb; j < je; ++j) {
      ++local_probes;
      if (bits.get(nbrs[j])) {
        // Minimum over each chunk's first hit == the global first
        // hit, so the parent choice is schedule-free.
        std::size_t cur = first_hit.load(std::memory_order_relaxed);
        while (j < cur && !first_hit.compare_exchange_weak(
                              cur, j, std::memory_order_relaxed)) {
        }
        break;
      }
    }
    probes.fetch_add(local_probes, std::memory_order_relaxed);
  });
  return {first_hit.load(std::memory_order_relaxed),
          probes.load(std::memory_order_relaxed)};
}

}  // namespace

BfsTree bfs_tree(Executor& ex, Workspace& ws, const Csr& g,
                 std::span<const vid> roots, BfsMode mode, Trace* trace) {
  const vid n = g.num_vertices();
  BfsTree out;
  out.root = roots.empty() ? 0 : roots[0];
  out.parent.assign(n, kNoVertex);
  out.parent_edge.assign(n, kNoEdge);
  out.level.assign(n, kNoVertex);
  if (n == 0 || roots.empty()) return out;

  // The output parent array doubles as the discovery array: top-down
  // claims are CAS-arbitrated through atomic_ref; bottom-up rounds
  // write each slot from its single owning thread.
  std::span<vid> parent(out.parent);
  for (const vid r : roots) {
    parent[r] = r;
    out.level[r] = 0;
  }

  const int p = ex.threads();
  const std::size_t num_words = BitSpan::words_for(n);
  const std::uint64_t num_arcs = 2 * static_cast<std::uint64_t>(g.num_edges());

  const bool nest = p > 1;

  Workspace::Frame frame(ws);
  std::span<vid> frontier = ws.alloc<vid>(n);
  BitSpan cur_bits(ws.alloc<std::uint64_t>(num_words));
  BitSpan next_bits(ws.alloc<std::uint64_t>(num_words));
  std::span<std::size_t> concat_offset =
      ws.alloc<std::size_t>(static_cast<std::size_t>(p) + 1);
  std::span<Padded<std::uint64_t>> t_inspected =
      ws.alloc<Padded<std::uint64_t>>(static_cast<std::size_t>(p));
  std::span<Padded<std::uint64_t>> t_degree =
      ws.alloc<Padded<std::uint64_t>>(static_cast<std::size_t>(p));
  std::span<Padded<std::size_t>> t_count =
      ws.alloc<Padded<std::size_t>>(static_cast<std::size_t>(p));
  // Per-thread discovery buffers grow dynamically: they are thread-local
  // state, which the single-orchestrator Workspace cannot hand out.
  std::vector<Padded<std::vector<vid>>> local(static_cast<std::size_t>(p));

  std::copy(roots.begin(), roots.end(), frontier.begin());
  std::size_t frontier_size = roots.size();
  std::uint64_t frontier_degree = 0;
  for (const vid r : roots) frontier_degree += g.degree(r);
  std::uint64_t unexplored_arcs = num_arcs - frontier_degree;

  bool dense = mode == BfsMode::kBottomUp;
  if (dense) {
    ex.parallel_for(num_words, [&](std::size_t w) { cur_bits.words()[w] = 0; });
    for (const vid r : roots) cur_bits.set(r);
  }

  vid depth = 0;
  vid reached = static_cast<vid>(roots.size());
  while (frontier_size != 0) {
    ++depth;

    if (mode == BfsMode::kAuto) {
      // The frontier-size guard is hysteresis: a frontier already below
      // the beta back-switch threshold would bounce straight back to
      // sparse after paying the full bitmap sweep (the alpha test alone
      // fires on any frontier once unexplored_arcs is nearly drained —
      // e.g. the tail of a long path).
      if (!dense && frontier_degree > unexplored_arcs / kAlpha &&
          frontier_size >= n / kBeta) {
        // Sparse -> dense: scatter the frontier into a fresh bitmap.
        // Distinct frontier vertices may share a word, hence the
        // atomic OR.
        ex.parallel_for(num_words,
                        [&](std::size_t w) { cur_bits.words()[w] = 0; });
        ex.parallel_for(frontier_size,
                        [&](std::size_t k) { cur_bits.set_atomic(frontier[k]); });
        dense = true;
      } else if (dense && frontier_size < n / kBeta) {
        // Dense -> sparse: compact the bitmap back into vertex ids.
        const std::size_t packed = pack_into(
            ex, ws, n, [&](std::size_t v) { return cur_bits.get(v); },
            [&](std::size_t dst, std::size_t v) {
              frontier[dst] = static_cast<vid>(v);
            });
        frontier_size = packed;
        dense = false;
      }
    }

    for (int t = 0; t < p; ++t) {
      t_inspected[static_cast<std::size_t>(t)].value = 0;
      t_degree[static_cast<std::size_t>(t)].value = 0;
      t_count[static_cast<std::size_t>(t)].value = 0;
    }

    if (!dense) {
      // Top-down: workers scan frontier chunks and claim undiscovered
      // neighbours with a CAS on the parent slot.  Buffers and
      // accumulators are indexed by the *executing worker* (each slot
      // runs its tasks serially), which is what makes the nested split
      // legal: a hub's adjacency goes through an inner parallel region
      // whose pieces land on other workers and append to those
      // workers' own buffers.
      for (auto& buf : local) buf.value.clear();
      // auto_grain floors at 64 (tiny frontiers run serially rather
      // than shatter) and targets ~8 chunks per worker on wide rounds;
      // a chunk that drew a hub anyway re-splits through the nested
      // region below, so coarse chunks stay stealable where it counts.
      const std::size_t td_grain = ex.auto_grain(frontier_size);
      ex.parallel_for(0, frontier_size, td_grain, [&](std::size_t k) {
        const vid v = frontier[k];
        const std::size_t deg = g.degree(v);
        const auto nbrs = g.neighbors(v);
        const auto eids = g.incident_edges(v);
        const auto scan = [&](std::size_t jb, std::size_t je) {
          const auto slot = static_cast<std::size_t>(ex.worker_id());
          std::vector<vid>& next = local[slot].value;
          std::uint64_t claimed_degree = 0;
          for (std::size_t j = jb; j < je; ++j) {
            const vid w = nbrs[j];
            vid expected = kNoVertex;
            if (std::atomic_ref(parent[w])
                    .compare_exchange_strong(expected, v,
                                             std::memory_order_acq_rel)) {
              out.parent_edge[w] = eids[j];
              out.level[w] = depth;
              claimed_degree += g.degree(w);
              next.push_back(w);
            }
          }
          t_degree[slot].value += claimed_degree;
        };
        if (nest && deg > 2 * kInnerGrain) {
          const std::size_t chunks = deg / kInnerGrain;
          ex.parallel_for(0, chunks, 1, [&](std::size_t c) {
            const auto [jb, je] = Executor::block_range(
                deg, static_cast<int>(chunks), static_cast<int>(c));
            scan(jb, je);
          });
        } else {
          scan(0, deg);
        }
        t_inspected[static_cast<std::size_t>(ex.worker_id())].value += deg;
      });
      // Gather the next frontier with a prefix-summed parallel scatter
      // (each worker's buffer lands in a disjoint range).
      frontier_size = concat_thread_buffers(
          ex, [&](int t) -> const std::vector<vid>& {
            return local[static_cast<std::size_t>(t)].value;
          },
          concat_offset, frontier.data());
      ++out.top_down_rounds;
    } else {
      // Bottom-up: whoever executes word w owns it outright, so every
      // write — parent, level, next-frontier word — has exactly one
      // writer and needs no atomics.  Undiscovered vertices probe
      // their adjacency until they find a parent on the current
      // frontier; a hub's probe is nested-split into chunks that race
      // to the *first* frontier hit (minimum index, so the chosen
      // parent matches the serial scan).
      // Each word is 64 vertices, so 16 words per task amortizes the
      // fork while still letting thieves grab skewed word runs.
      constexpr std::size_t bu_grain = 16;
      ex.parallel_for(0, num_words, bu_grain, [&](std::size_t w) {
        std::uint64_t inspected = 0;
        std::uint64_t claimed_degree = 0;
        std::size_t claimed = 0;
        std::uint64_t next_word = 0;
        const std::size_t base = w << 6;
        const std::size_t limit =
            base + 64 < n ? base + 64 : static_cast<std::size_t>(n);
        for (std::size_t v = base; v < limit; ++v) {
          if (parent[v] != kNoVertex) continue;
          const std::size_t deg = g.degree(static_cast<vid>(v));
          const auto nbrs = g.neighbors(static_cast<vid>(v));
          std::size_t hit = deg;
          if (nest && deg > 2 * kInnerGrain) {
            const HubProbe hp = hub_probe(ex, cur_bits, nbrs);
            hit = hp.hit;
            inspected += hp.probes;
          } else {
            for (std::size_t j = 0; j < deg; ++j) {
              ++inspected;
              if (cur_bits.get(nbrs[j])) {
                hit = j;
                break;
              }
            }
          }
          if (hit < deg) {
            parent[v] = nbrs[hit];
            out.parent_edge[v] = g.incident_edges(static_cast<vid>(v))[hit];
            out.level[v] = depth;
            next_word |= std::uint64_t{1} << (v & 63);
            claimed_degree += deg;
            ++claimed;
          }
        }
        next_bits.words()[w] = next_word;
        const auto slot = static_cast<std::size_t>(ex.worker_id());
        t_inspected[slot].value += inspected;
        t_degree[slot].value += claimed_degree;
        t_count[slot].value += claimed;
      });
      std::size_t total = 0;
      for (int t = 0; t < p; ++t) {
        total += t_count[static_cast<std::size_t>(t)].value;
      }
      frontier_size = total;
      std::swap(cur_bits, next_bits);
      ++out.bottom_up_rounds;
    }

    frontier_degree = 0;
    for (int t = 0; t < p; ++t) {
      out.inspected_edges += t_inspected[static_cast<std::size_t>(t)].value;
      frontier_degree += t_degree[static_cast<std::size_t>(t)].value;
    }
    unexplored_arcs -= frontier_degree;
    reached += static_cast<vid>(frontier_size);
  }

  out.reached = reached;
  out.num_levels = depth;  // last round discovered nothing: depth-1 levels past root
  out.diameter_estimate = depth > 0 ? depth - 1 : 0;
  if (trace != nullptr) {
    trace->counter("bfs_inspected_edges",
                   static_cast<double>(out.inspected_edges));
    trace->counter("bfs_top_down_rounds",
                   static_cast<double>(out.top_down_rounds));
    trace->counter("bfs_bottom_up_rounds",
                   static_cast<double>(out.bottom_up_rounds));
    trace->counter("bfs_diameter_estimate",
                   static_cast<double>(out.diameter_estimate));
  }
  return out;
}

}  // namespace parbcc
