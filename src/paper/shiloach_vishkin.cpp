#include "paper/shiloach_vishkin.hpp"

#include <atomic>

namespace parbcc {

namespace {

/// One SPMD step of the printed algorithm: all p participants scan
/// their static block of [0, count) at the same time.  SV's round
/// counts depend on that concurrency — a label written early in a pass
/// is visible later in the same pass, so blocks run one after another
/// (as fork-join block tasks may on a busy host) collapse classic SV
/// towards its serial 2-round minimum and hide FastSV's advantage.
template <class F>
void spmd_blocks(Executor& ex, std::size_t count, const F& f) {
  const int p = ex.threads();
  ex.run([&](int tid) {
    const auto [begin, end] = Executor::block_range(count, p, tid);
    f(tid, begin, end);
  });
}

}  // namespace

bool any_set(std::span<const Padded<bool>> flags) {
  for (const auto& c : flags) {
    if (c.value) return true;
  }
  return false;
}

void shortcut_pass(Executor& ex, std::span<vid> label, vid n,
                   std::span<Padded<bool>> thread_changed) {
  spmd_blocks(ex, n, [&](int tid, std::size_t begin, std::size_t end) {
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
}

bool shortcut_to_fixpoint(Executor& ex, std::span<vid> label, vid n,
                          std::span<Padded<bool>> thread_changed) {
  for (bool any = false;; any = true) {
    for (auto& c : thread_changed) c.value = false;
    shortcut_pass(ex, label, n, thread_changed);
    if (!any_set(thread_changed)) return any;
  }
}

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
    spmd_blocks(ex, m, [&](int tid, std::size_t begin, std::size_t end) {
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

    shortcut_pass(ex, label, n, thread_changed);
    if (!any_set(thread_changed)) break;
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
    spmd_blocks(ex, m, [&](int tid, std::size_t begin, std::size_t end) {
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
    const bool hooked = any_set(thread_changed);
    // Full pointer jumping: flatten all chains before the next pass.
    if (!shortcut_to_fixpoint(ex, label, n, thread_changed) && !hooked) break;
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

}  // namespace parbcc
