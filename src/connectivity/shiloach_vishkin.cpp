#include "connectivity/shiloach_vishkin.hpp"

#include <algorithm>
#include <atomic>

#include "connectivity/union_find.hpp"
#include "util/padded.hpp"

namespace parbcc {
namespace {

/// Priority min-write: lower `slot` to `val` if val is smaller.
/// Returns true iff this call lowered it.  The CAS loop makes
/// concurrent writers converge on the minimum instead of the last one
/// winning.
inline bool write_min(vid& slot, vid val) {
  std::atomic_ref ref(slot);
  vid cur = ref.load(std::memory_order_relaxed);
  while (val < cur) {
    if (ref.compare_exchange_weak(cur, val, std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

/// Pointer-jump every label until a full pass changes nothing, leaving
/// label[label[v]] == label[v] for all v — so the next hooking pass
/// reads roots, not chain interiors.  Returns true iff any jump fired.
bool shortcut_to_fixpoint(Executor& ex, std::span<vid> label, vid n,
                          std::span<Padded<bool>> thread_changed) {
  bool any = false;
  for (;;) {
    for (auto& c : thread_changed) c.value = false;
    ex.parallel_blocks(n, [&](int tid, std::size_t begin, std::size_t end) {
      bool changed = false;
      for (std::size_t v = begin; v < end; ++v) {
        const vid l = std::atomic_ref(label[v]).load(std::memory_order_relaxed);
        const vid ll = std::atomic_ref(label[l]).load(std::memory_order_relaxed);
        if (ll != l) {
          std::atomic_ref(label[v]).store(ll, std::memory_order_relaxed);
          changed = true;
        }
      }
      if (changed) thread_changed[static_cast<std::size_t>(tid)].value = true;
    });
    bool pass = false;
    for (const auto& c : thread_changed) pass = pass || c.value;
    if (!pass) break;
    any = true;
  }
  return any;
}

void components_classic(Executor& ex, vid n, std::span<const Edge> edges,
                        std::span<vid> label,
                        std::span<Padded<bool>> thread_changed,
                        SvStats* stats) {
  const std::size_t m = edges.size();
  for (;;) {
    if (stats != nullptr) ++stats->rounds;
    for (auto& c : thread_changed) c.value = false;

    // Graft: hook current roots onto strictly smaller neighbour labels.
    // The CAS guarantees each root is hooked at most once, and the
    // strict decrease makes the label digraph acyclic.
    ex.parallel_blocks(m, [&](int tid, std::size_t begin, std::size_t end) {
      bool changed = false;
      for (std::size_t i = begin; i < end; ++i) {
        const vid u = edges[i].u;
        const vid v = edges[i].v;
        vid du = std::atomic_ref(label[u]).load(std::memory_order_relaxed);
        vid dv = std::atomic_ref(label[v]).load(std::memory_order_relaxed);
        if (du == dv) continue;
        if (du < dv) std::swap(du, dv);
        // Hook root du onto the smaller label dv.
        vid expected = du;
        if (std::atomic_ref(label[du])
                .compare_exchange_strong(expected, dv,
                                         std::memory_order_relaxed)) {
          changed = true;
        }
      }
      if (changed) thread_changed[static_cast<std::size_t>(tid)].value = true;
    });

    // Shortcut: one pointer jump for every vertex.
    ex.parallel_blocks(n, [&](int tid, std::size_t begin, std::size_t end) {
      bool changed = false;
      for (std::size_t v = begin; v < end; ++v) {
        const vid l = std::atomic_ref(label[v]).load(std::memory_order_relaxed);
        const vid ll = std::atomic_ref(label[l]).load(std::memory_order_relaxed);
        if (ll != l) {
          std::atomic_ref(label[v]).store(ll, std::memory_order_relaxed);
          changed = true;
        }
      }
      if (changed) thread_changed[static_cast<std::size_t>(tid)].value = true;
    });

    bool any = false;
    for (const auto& c : thread_changed) any = any || c.value;
    if (!any) break;
  }
}

void components_fastsv(Executor& ex, vid n, std::span<const Edge> edges,
                       std::span<vid> label,
                       std::span<Padded<bool>> thread_changed,
                       SvStats* stats) {
  const std::size_t m = edges.size();
  for (;;) {
    if (stats != nullptr) ++stats->rounds;
    for (auto& c : thread_changed) c.value = false;

    // Hooking pass, stride-2: every write target and every written
    // value is a *grandparent* label, which the preceding full
    // shortcut has flattened to a root.  Stochastic hooking lowers
    // the opposite root (label[du] <- gdv); aggressive hooking lowers
    // the endpoint itself (label[u] <- gdv) so chains never regrow.
    // Labels only decrease and only to ids inside the same component,
    // so the fixpoint is the component minimum — identical to the
    // classic scheme's contract.
    ex.parallel_blocks(m, [&](int tid, std::size_t begin, std::size_t end) {
      bool changed = false;
      for (std::size_t i = begin; i < end; ++i) {
        const vid u = edges[i].u;
        const vid v = edges[i].v;
        const vid du = std::atomic_ref(label[u]).load(std::memory_order_relaxed);
        const vid dv = std::atomic_ref(label[v]).load(std::memory_order_relaxed);
        const vid gdu =
            std::atomic_ref(label[du]).load(std::memory_order_relaxed);
        const vid gdv =
            std::atomic_ref(label[dv]).load(std::memory_order_relaxed);
        if (gdu == gdv) continue;
        bool hooked = false;
        if (gdv < gdu) {
          hooked |= write_min(label[du], gdv);
          hooked |= write_min(label[u], gdv);
        } else {
          hooked |= write_min(label[dv], gdu);
          hooked |= write_min(label[v], gdu);
        }
        if (hooked) changed = true;
      }
      if (changed) thread_changed[static_cast<std::size_t>(tid)].value = true;
    });
    bool any = false;
    for (const auto& c : thread_changed) any = any || c.value;

    // Full pointer jumping: flatten all chains before the next pass.
    any = shortcut_to_fixpoint(ex, label, n, thread_changed) || any;
    if (!any) break;
  }
}

}  // namespace

void connected_components_sv(Executor& ex, Workspace& ws, vid n,
                             std::span<const Edge> edges, std::span<vid> label,
                             SvMode mode, SvStats* stats) {
  ex.parallel_for(n, [&](std::size_t v) {
    label[v] = static_cast<vid>(v);
  });

  const int p = ex.threads();
  Workspace::Frame frame(ws);
  std::span<Padded<bool>> thread_changed =
      ws.alloc<Padded<bool>>(static_cast<std::size_t>(p));

  if (mode == SvMode::kClassic) {
    components_classic(ex, n, edges, label, thread_changed, stats);
  } else {
    components_fastsv(ex, n, edges, label, thread_changed, stats);
  }
}

std::vector<vid> connected_components_seq(vid n, std::span<const Edge> edges) {
  UnionFind uf(n);
  for (const Edge& e : edges) uf.unite(e.u, e.v);
  // Convert to the same contract as the parallel version: the label is
  // the minimum vertex id of the component.
  std::vector<vid> min_of_root(n, kNoVertex);
  for (vid v = 0; v < n; ++v) {
    const vid r = uf.find(v);
    if (min_of_root[r] == kNoVertex) min_of_root[r] = v;  // v ascending
  }
  std::vector<vid> out(n);
  for (vid v = 0; v < n; ++v) out[v] = min_of_root[uf.find(v)];
  return out;
}

vid count_components(std::span<const vid> labels) {
  vid count = 0;
  for (std::size_t v = 0; v < labels.size(); ++v) {
    if (labels[v] == v) ++count;
  }
  return count;
}

vid normalize_labels(std::span<vid> labels) {
  vid domain = 0;
  for (const vid l : labels) domain = std::max(domain, l + 1);
  std::vector<vid> remap(domain, kNoVertex);
  vid next = 0;
  for (auto& l : labels) {
    if (remap[l] == kNoVertex) remap[l] = next++;
    l = remap[l];
  }
  return next;
}

}  // namespace parbcc
