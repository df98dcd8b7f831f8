#include "paper/traversal_tree.hpp"

#include <atomic>
#include <mutex>
#include <span>
#include <thread>

#include "util/padded.hpp"

namespace parbcc {
namespace {

/// A mutex-guarded vertex stack; the owner pushes/pops at the back,
/// thieves take half from the front.  Contention is negligible at SMP
/// scale (p <= a few dozen), which keeps this far simpler than a
/// lock-free deque without changing the measured behaviour.
struct alignas(kCacheLine) WorkStack {
  std::mutex mu;
  std::vector<vid> items;

  void push(vid v) {
    std::lock_guard<std::mutex> lock(mu);
    items.push_back(v);
  }

  bool pop(vid& v) {
    std::lock_guard<std::mutex> lock(mu);
    if (items.empty()) return false;
    v = items.back();
    items.pop_back();
    return true;
  }

  /// Steal up to half the victim's items into `out`; returns count.
  std::size_t steal_half(std::vector<vid>& out) {
    std::lock_guard<std::mutex> lock(mu);
    const std::size_t take = items.size() / 2;
    if (take == 0) return 0;
    out.assign(items.begin(), items.begin() + static_cast<std::ptrdiff_t>(take));
    items.erase(items.begin(), items.begin() + static_cast<std::ptrdiff_t>(take));
    return take;
  }
};

}  // namespace

TraversalTree traversal_spanning_tree(Executor& ex, const Csr& g, vid root) {
  const vid n = g.num_vertices();
  TraversalTree out;
  out.root = root;
  out.parent.assign(n, kNoVertex);
  out.parent_edge.assign(n, kNoEdge);
  if (n == 0) return out;

  // Ownership claims CAS the output parent array in place through
  // atomic_ref — the former shadow vector of atomics (an O(n) scratch
  // allocation plus a copy-out pass) is gone entirely.
  std::span<vid> parent(out.parent);
  parent[root] = root;

  const int p = ex.threads();
  std::vector<WorkStack> stacks(static_cast<std::size_t>(p));
  stacks[0].items.push_back(root);

  // pending counts vertices discovered but not yet scanned; the
  // traversal is complete exactly when it reaches zero.
  std::atomic<std::int64_t> pending{1};
  std::atomic<vid> reached{1};

  ex.run([&](int tid) {
    WorkStack& mine = stacks[static_cast<std::size_t>(tid)];
    std::vector<vid> loot;
    int next_victim = (tid + 1) % p;
    for (;;) {
      vid v;
      if (mine.pop(v)) {
        const auto nbrs = g.neighbors(v);
        const auto eids = g.incident_edges(v);
        std::int64_t discovered = 0;
        for (std::size_t k = 0; k < nbrs.size(); ++k) {
          const vid w = nbrs[k];
          // Cheap load filters the common already-claimed case before
          // paying for a lock-prefixed CAS (dense graphs lose most
          // races: 2m - (n-1) arcs see a claimed endpoint).
          if (std::atomic_ref(parent[w]).load(std::memory_order_relaxed) !=
              kNoVertex) {
            continue;
          }
          vid expected = kNoVertex;
          if (std::atomic_ref(parent[w])
                  .compare_exchange_strong(expected, v,
                                           std::memory_order_acq_rel)) {
            out.parent_edge[w] = eids[k];  // sole writer: CAS winner
            mine.push(w);
            ++discovered;
          }
        }
        if (discovered != 0) {
          pending.fetch_add(discovered, std::memory_order_relaxed);
          reached.fetch_add(static_cast<vid>(discovered),
                            std::memory_order_relaxed);
        }
        pending.fetch_sub(1, std::memory_order_acq_rel);
        continue;
      }
      // Out of local work: try to steal, then check for termination.
      bool stole = false;
      for (int attempt = 0; attempt < p - 1; ++attempt) {
        WorkStack& victim = stacks[static_cast<std::size_t>(next_victim)];
        next_victim = (next_victim + 1) % p;
        if (next_victim == tid) next_victim = (next_victim + 1) % p;
        if (&victim == &mine) continue;
        if (victim.steal_half(loot) > 0) {
          std::lock_guard<std::mutex> lock(mine.mu);
          mine.items.insert(mine.items.end(), loot.begin(), loot.end());
          stole = true;
          break;
        }
      }
      if (stole) continue;
      if (pending.load(std::memory_order_acquire) == 0) break;
      std::this_thread::yield();
    }
  });

  out.reached = reached.load(std::memory_order_relaxed);
  return out;
}

}  // namespace parbcc
