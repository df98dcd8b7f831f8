#include "paper/list_ranking.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "util/rng.hpp"

namespace parbcc {

void list_rank_sequential(const vid* succ, vid* rank, std::size_t n,
                          vid head) {
  if (n == 0) return;
  vid v = head;
  for (std::size_t r = 0; r < n; ++r) {
    rank[v] = static_cast<vid>(r);
    v = succ[v];
    if (v == kNoVertex) {
      if (r + 1 != n) {
        throw std::invalid_argument(
            "list_rank_sequential: list does not cover all nodes");
      }
      return;
    }
  }
  throw std::invalid_argument("list_rank_sequential: list has a cycle");
}

void list_rank_wyllie(Executor& ex, Workspace& ws, const vid* succ, vid* rank,
                      std::size_t n, vid head) {
  if (n == 0) return;
  if (n == 1) {
    rank[head] = 0;
    return;
  }
  // Pointer jumping computes distance-to-tail; two buffers per array
  // keep every round race-free (reads from generation g, writes g+1).
  Workspace::Frame frame(ws);
  std::span<vid> dist_a = ws.alloc<vid>(n);
  std::span<vid> dist_b = ws.alloc<vid>(n);
  std::span<vid> next_a = ws.alloc<vid>(n);
  std::span<vid> next_b = ws.alloc<vid>(n);
  ex.parallel_for(n, [&](std::size_t i) {
    next_a[i] = succ[i];
    dist_a[i] = (succ[i] == kNoVertex) ? 0 : 1;
  });

  vid* dist = dist_a.data();
  vid* dist_nx = dist_b.data();
  vid* next = next_a.data();
  vid* next_nx = next_b.data();

  // ceil(log2(n)) rounds suffice: the hop length doubles every round.
  for (std::size_t span = 1; span < n; span *= 2) {
    ex.parallel_for(n, [&](std::size_t i) {
      const vid nx = next[i];
      if (nx == kNoVertex) {
        dist_nx[i] = dist[i];
        next_nx[i] = kNoVertex;
      } else {
        dist_nx[i] = dist[i] + dist[nx];
        next_nx[i] = next[nx];
      }
    });
    std::swap(dist, dist_nx);
    std::swap(next, next_nx);
  }

  const vid total = dist[head];  // = n - 1: head's distance to the tail
  ex.parallel_for(n, [&](std::size_t i) {
    rank[i] = total - dist[i];
  });
}

void list_rank_hj(Executor& ex, Workspace& ws, const vid* succ, vid* rank,
                  std::size_t n, vid head, std::uint64_t seed) {
  if (n == 0) return;
  const int p = ex.threads();
  // Target sublists: enough to balance the walks even when splitters
  // land unevenly; the classic recommendation is Theta(p log n).
  std::size_t want = static_cast<std::size_t>(p) * 16 + 8;
  want = std::min(want, n);
  if (p == 1 || n < 2048) {
    list_rank_sequential(succ, rank, n, head);
    return;
  }

  Workspace::Frame frame(ws);

  // --- Select splitters (deterministic from `seed`). -----------------
  std::span<std::uint8_t> is_splitter = ws.alloc<std::uint8_t>(n);
  std::memset(is_splitter.data(), 0, n);
  std::span<vid> splitters = ws.alloc<vid>(want + 1);
  std::size_t s = 0;
  is_splitter[head] = 1;
  splitters[s++] = head;
  for (std::size_t k = 0; s < want; ++k) {
    const vid v = static_cast<vid>(splitmix64(seed + k) % n);
    if (!is_splitter[v]) {
      is_splitter[v] = 1;
      splitters[s++] = v;
    }
    if (k > 4 * want) break;  // collisions ate the budget; fewer is fine
  }

  // splitter_index[v] = k for splitters[k] == v.
  std::span<vid> splitter_index = ws.alloc<vid>(n);
  ex.parallel_for(n, [&](std::size_t i) { splitter_index[i] = kNoVertex; });
  for (std::size_t k = 0; k < s; ++k) {
    splitter_index[splitters[k]] = static_cast<vid>(k);
  }

  // --- Parallel sublist walks. ---------------------------------------
  // Each splitter owns the chain up to (excluding) the next splitter.
  std::span<vid> sublist = ws.alloc<vid>(n);     // sublist id per node
  std::span<vid> local_rank = ws.alloc<vid>(n);  // rank within the sublist
  std::span<vid> next_splitter = ws.alloc<vid>(s);
  std::span<vid> sublist_len = ws.alloc<vid>(s);

  ex.parallel_for(0, s, 1, [&](std::size_t k) {
    vid v = splitters[k];
    vid local = 0;
    for (;;) {
      sublist[v] = static_cast<vid>(k);
      local_rank[v] = local++;
      const vid w = succ[v];
      if (w == kNoVertex) {
        next_splitter[k] = kNoVertex;
        break;
      }
      if (is_splitter[w]) {
        next_splitter[k] = w;
        break;
      }
      v = w;
    }
    sublist_len[k] = local;
  });

  // --- Sequential prefix over the s sublists in list order. ----------
  std::span<vid> offset = ws.alloc<vid>(s);
  {
    vid running = 0;
    vid k = splitter_index[head];
    std::size_t guard = 0;
    for (;;) {
      offset[k] = running;
      running += sublist_len[k];
      const vid nxt = next_splitter[k];
      if (nxt == kNoVertex) break;
      k = splitter_index[nxt];
      if (++guard > s) {
        throw std::invalid_argument("list_rank_hj: splitter chain has a cycle");
      }
    }
    if (running != n) {
      throw std::invalid_argument(
          "list_rank_hj: list does not cover all nodes");
    }
  }

  // --- Final parallel combine. ---------------------------------------
  ex.parallel_for(n, [&](std::size_t i) {
    rank[i] = offset[sublist[i]] + local_rank[i];
  });
}

void list_rank_independent_set(Executor& ex, Workspace& ws, const vid* succ,
                               vid* rank, std::size_t n, vid head,
                               std::uint64_t seed) {
  if (n == 0) return;
  if (ex.threads() == 1 || n < 2048) {
    list_rank_sequential(succ, rank, n, head);
    return;
  }

  Workspace::Frame frame(ws);

  // Doubly linked working copy; dist[i] = hops from i to cur_succ[i].
  std::span<vid> cur_succ = ws.alloc<vid>(n);
  std::span<vid> pred = ws.alloc<vid>(n);
  std::span<vid> dist = ws.alloc<vid>(n);
  ex.parallel_for(n, [&](std::size_t i) {
    cur_succ[i] = succ[i];
    pred[i] = kNoVertex;
    dist[i] = 1;
  });
  ex.parallel_for(n, [&](std::size_t i) {
    if (cur_succ[i] != kNoVertex) pred[cur_succ[i]] = static_cast<vid>(i);
  });

  std::span<vid> live = ws.alloc<vid>(n);
  std::span<vid> live_next = ws.alloc<vid>(n);
  std::size_t num_live = n;
  ex.parallel_for(n, [&](std::size_t i) { live[i] = static_cast<vid>(i); });

  // Removal log: (node, predecessor, hops predecessor -> node).  At
  // most n - 1 nodes are ever spliced out.
  struct Removal {
    vid node;
    vid pred;
    vid hops;
  };
  std::span<Removal> log = ws.alloc<Removal>(n);
  std::size_t log_size = 0;
  std::span<vid> batch = ws.alloc<vid>(n);
  std::span<std::uint8_t> coin = ws.alloc<std::uint8_t>(n);
  std::span<std::uint8_t> spliced = ws.alloc<std::uint8_t>(n);
  std::memset(spliced.data(), 0, n);

  std::uint64_t round = 0;
  while (num_live > 1) {
    ++round;
    ex.parallel_for(num_live, [&](std::size_t k) {
      const vid i = live[k];
      coin[i] = splitmix64(seed ^ (round << 32) ^ i) & 1;
    });
    // Select: coin(i)=1 and coin(pred)=0 (head has no pred: never
    // selected, so it survives to the end).  The selected set is
    // independent, so each splice touches only unselected neighbours.
    std::size_t batch_size = 0;
    for (std::size_t k = 0; k < num_live; ++k) {
      const vid i = live[k];
      if (i == head || coin[i] == 0) continue;
      const vid p = pred[i];
      if (coin[p] == 1) continue;
      batch[batch_size++] = i;
    }
    // Record the log serially (order within a round is irrelevant),
    // then apply the splices in parallel.
    for (std::size_t k = 0; k < batch_size; ++k) {
      const vid i = batch[k];
      log[log_size++] = {i, pred[i], dist[pred[i]]};
    }
    ex.parallel_for(batch_size, [&](std::size_t k) {
      const vid i = batch[k];
      const vid p = pred[i];
      const vid s = cur_succ[i];
      cur_succ[p] = s;
      dist[p] += dist[i];
      if (s != kNoVertex) pred[s] = p;
      spliced[i] = 1;
    });
    std::size_t next_live = 0;
    for (std::size_t k = 0; k < num_live; ++k) {
      const vid i = live[k];
      if (!spliced[i]) live_next[next_live++] = i;
    }
    std::swap(live, live_next);
    num_live = next_live;
  }

  // Replay: the head has rank 0; every spliced node sits `hops` after
  // its predecessor-at-splice-time (whose rank is known by then,
  // because predecessors are spliced strictly later or never).
  rank[head] = 0;
  for (std::size_t k = log_size; k > 0; --k) {
    rank[log[k - 1].node] = rank[log[k - 1].pred] + log[k - 1].hops;
  }
}

}  // namespace parbcc
