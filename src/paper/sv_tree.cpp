#include "paper/sv_tree.hpp"

#include <atomic>

#include "scan/compact.hpp"
#include "util/padded.hpp"

namespace parbcc {
namespace {

/// Core graft-and-shortcut with hook recording.  `edge_at(k)` maps the
/// dense iteration index k in [0, count) to an edge id in `edges`.
/// `comp` (the output label array) is the working array, updated in
/// place through std::atomic_ref; the hook slots are Workspace scratch.
///
/// `fast` selects stride-2 hooking plus full per-round pointer
/// jumping.  The graft CAS itself is the same in both modes: hook[du]
/// can only be recorded by the one thread that flips label[du] off its
/// self-loop, and labels never return to self (they only decrease), so
/// each root grafts at most once in either mode.
template <class EdgeAt>
SpanningForest sv_forest_impl(Executor& ex, Workspace& ws, vid n,
                              std::span<const Edge> edges, std::size_t count,
                              EdgeAt edge_at, bool fast) {
  SpanningForest out;
  out.comp.resize(n);
  std::span<vid> label(out.comp);

  Workspace::Frame frame(ws);
  std::span<eid> hook = ws.alloc<eid>(n);
  ex.parallel_for(n, [&](std::size_t v) {
    label[v] = static_cast<vid>(v);
    hook[v] = kNoEdge;
  });

  const int p = ex.threads();
  std::span<Padded<bool>> thread_changed =
      ws.alloc<Padded<bool>>(static_cast<std::size_t>(p));

  const auto any_changed = [&] {
    bool any = false;
    for (const auto& c : thread_changed) any = any || c.value;
    return any;
  };

  for (;;) {
    ++out.rounds;
    for (auto& c : thread_changed) c.value = false;

    ex.parallel_blocks(count, [&](int tid, std::size_t begin,
                                  std::size_t end) {
      bool changed = false;
      for (std::size_t k = begin; k < end; ++k) {
        const eid i = edge_at(k);
        const vid u = edges[i].u;
        const vid v = edges[i].v;
        vid du = std::atomic_ref(label[u]).load(std::memory_order_relaxed);
        vid dv = std::atomic_ref(label[v]).load(std::memory_order_relaxed);
        if (fast) {
          // Stride-2: hook between the grandparent labels, which the
          // previous round's full shortcut flattened to roots — so the
          // CAS below rarely hits a stale chain interior and fails.
          du = std::atomic_ref(label[du]).load(std::memory_order_relaxed);
          dv = std::atomic_ref(label[dv]).load(std::memory_order_relaxed);
        }
        if (du == dv) continue;
        if (du < dv) std::swap(du, dv);
        vid expected = du;
        if (std::atomic_ref(label[du])
                .compare_exchange_strong(expected, dv,
                                         std::memory_order_acq_rel)) {
          // This thread owns root du's single graft: record its edge.
          std::atomic_ref(hook[du]).store(i, std::memory_order_relaxed);
          changed = true;
        }
      }
      if (changed) thread_changed[static_cast<std::size_t>(tid)].value = true;
    });
    bool round_changed = any_changed();

    // Shortcut: pointer-jump every vertex — once in classic mode, to a
    // fully flattened fixpoint in fast mode.
    for (;;) {
      for (auto& c : thread_changed) c.value = false;
      ex.parallel_blocks(n, [&](int tid, std::size_t begin, std::size_t end) {
        bool changed = false;
        for (std::size_t v = begin; v < end; ++v) {
          const vid l = std::atomic_ref(label[v]).load(std::memory_order_relaxed);
          const vid ll =
              std::atomic_ref(label[l]).load(std::memory_order_relaxed);
          if (ll != l) {
            std::atomic_ref(label[v]).store(ll, std::memory_order_relaxed);
            changed = true;
          }
        }
        if (changed) thread_changed[static_cast<std::size_t>(tid)].value = true;
      });
      if (!any_changed()) break;
      round_changed = true;
      if (!fast) break;
    }

    if (!round_changed) break;
  }

  // Forest edges: hooks of all grafted roots, compacted in vertex order.
  out.tree_edges.resize(n);
  const std::size_t tree_count = pack_into(
      ex, ws, n,
      [&](std::size_t v) { return hook[v] != kNoEdge; },
      [&](std::size_t dst, std::size_t v) {
        out.tree_edges[dst] = hook[v];
      });
  out.tree_edges.resize(tree_count);
  out.num_components = static_cast<vid>(n - tree_count);
  return out;
}

}  // namespace

SpanningForest sv_spanning_forest(Executor& ex, Workspace& ws, vid n,
                                  std::span<const Edge> edges, SvMode mode) {
  return sv_forest_impl(ex, ws, n, edges, edges.size(),
                        [](std::size_t k) { return static_cast<eid>(k); },
                        mode != SvMode::kClassic);
}

SpanningForest sv_spanning_forest(Executor& ex, Workspace& ws, vid n,
                                  std::span<const Edge> edges,
                                  std::span<const eid> subset, SvMode mode) {
  return sv_forest_impl(ex, ws, n, edges, subset.size(),
                        [subset](std::size_t k) { return subset[k]; },
                        mode != SvMode::kClassic);
}

}  // namespace parbcc
