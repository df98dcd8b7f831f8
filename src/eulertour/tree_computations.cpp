#include "eulertour/tree_computations.hpp"

#include <atomic>
#include <stdexcept>

#include "scan/scan.hpp"
#include "util/concat.hpp"

namespace parbcc {
namespace {

/// Narrow levels are processed serially: a traversal spanning tree of a
/// sparse graph can be DFS-deep (hundreds of thousands of levels of a
/// few vertices each), and paying a fork/barrier per level would
/// dominate.  Wide levels — the BFS trees TV-filter uses — still fan
/// out across threads.
constexpr std::size_t kSerialLevelCutoff = 2048;

}  // namespace

ChildrenCsr build_children(Executor& ex, Workspace& ws,
                           std::span<const vid> parent, vid root,
                           Trace* trace) {
  TraceSpan span(trace, "build_children");
  const std::size_t n = parent.size();
  ChildrenCsr out;
  out.offsets.assign(n + 1, 0);
  if (n == 0) return out;

  // One workspace cursor array serves both the degree count and the
  // scatter cursor; cross-thread increments go through atomic_ref.
  Workspace::Frame frame(ws);
  std::span<eid> cursor = ws.alloc<eid>(n);
  ex.parallel_for(n, [&](std::size_t v) { cursor[v] = 0; });
  ex.parallel_for(n, [&](std::size_t v) {
    if (v != root) {
      std::atomic_ref(cursor[parent[v]]).fetch_add(1,
                                                   std::memory_order_relaxed);
    }
  });

  const eid total =
      exclusive_scan(ex, ws, cursor.data(), out.offsets.data(), n, eid{0});
  out.offsets[n] = total;

  out.child.resize(total);
  ex.parallel_for(n, [&](std::size_t v) { cursor[v] = out.offsets[v]; });
  ex.parallel_for(n, [&](std::size_t v) {
    if (v != root) {
      const eid slot = std::atomic_ref(cursor[parent[v]])
                           .fetch_add(1, std::memory_order_relaxed);
      out.child[slot] = static_cast<vid>(v);
    }
  });
  return out;
}

LevelStructure build_levels(Executor& ex, const ChildrenCsr& children,
                            vid root, Trace* trace) {
  TraceSpan span(trace, "build_levels");
  const std::size_t n = children.offsets.size() - 1;
  LevelStructure out;
  out.depth.assign(n, kNoVertex);
  if (n == 0) {
    out.level_offsets.assign(1, 0);
    return out;
  }

  // Every vertex enters `order` exactly once (each appears in one
  // child list), so the array is sized upfront and levels append at
  // the `filled` cursor — the parallel path can then scatter straight
  // into its final slots.
  out.order.resize(n);
  out.level_offsets.push_back(0);
  out.depth[root] = 0;
  out.order[0] = root;
  std::size_t filled = 1;

  // Top-down frontier sweep over the child lists.  The frontier for
  // depth d+1 is gathered from per-thread buffers with a prefix-summed
  // parallel scatter; the concatenation order inside a level is
  // irrelevant to every consumer.
  std::size_t level_begin = 0;
  vid depth = 0;
  const int p = ex.threads();
  std::vector<std::vector<vid>> local(static_cast<std::size_t>(p));
  std::vector<std::size_t> concat_offset(static_cast<std::size_t>(p) + 1);
  while (level_begin < filled) {
    const std::size_t level_end = filled;
    out.level_offsets.push_back(static_cast<eid>(level_end));
    ++depth;

    const std::size_t width = level_end - level_begin;
    if (p == 1 || width < kSerialLevelCutoff) {
      for (std::size_t k = 0; k < width; ++k) {
        const vid v = out.order[level_begin + k];
        for (const vid c : children.children(v)) {
          out.depth[c] = depth;
          out.order[filled++] = c;
        }
      }
    } else {
      for (auto& buf : local) buf.clear();
      ex.parallel_blocks(width,
                         [&](int tid, std::size_t begin, std::size_t end) {
                           auto& buf = local[static_cast<std::size_t>(tid)];
                           for (std::size_t k = begin; k < end; ++k) {
                             const vid v = out.order[level_begin + k];
                             for (const vid c : children.children(v)) {
                               out.depth[c] = depth;
                               buf.push_back(c);
                             }
                           }
                         });
      filled += concat_thread_buffers(
          ex,
          [&](int t) -> const std::vector<vid>& {
            return local[static_cast<std::size_t>(t)];
          },
          std::span<std::size_t>(concat_offset), out.order.data() + filled);
    }
    level_begin = level_end;
  }
  // The loop pushed one boundary per processed level; the final
  // boundary (== n for a tree) was pushed when the last non-empty
  // level produced no children.
  out.num_levels = static_cast<vid>(out.level_offsets.size() - 1);
  if (filled != n) {
    throw std::invalid_argument(
        "build_levels: parent structure does not span all vertices");
  }
  return out;
}

void preorder_and_size(Executor& ex, const ChildrenCsr& children,
                       const LevelStructure& levels, vid root,
                       std::vector<vid>& pre, std::vector<vid>& sub,
                       Trace* trace) {
  TraceSpan span(trace, "preorder_size");
  const std::size_t n = children.offsets.size() - 1;
  pre.assign(n, 0);
  sub.assign(n, 1);
  if (n == 0) return;

  // Bottom-up: subtree sizes, one level at a time (children are always
  // exactly one level below, so each sweep reads finished values).
  for (vid d = levels.num_levels; d-- > 0;) {
    const auto level = levels.level(d);
    const auto body = [&](std::size_t k) {
      const vid v = level[k];
      vid size = 1;
      for (const vid c : children.children(v)) size += sub[c];
      sub[v] = size;
    };
    if (level.size() < kSerialLevelCutoff) {
      for (std::size_t k = 0; k < level.size(); ++k) body(k);
    } else {
      ex.parallel_for(level.size(), body);
    }
  }

  // Top-down: preorder numbers.  A child's number is its parent's plus
  // one plus the sizes of the siblings that precede it.
  pre[root] = 1;
  for (vid d = 0; d < levels.num_levels; ++d) {
    const auto level = levels.level(d);
    const auto body = [&](std::size_t k) {
      const vid v = level[k];
      vid running = pre[v] + 1;
      for (const vid c : children.children(v)) {
        pre[c] = running;
        running += sub[c];
      }
    };
    if (level.size() < kSerialLevelCutoff) {
      for (std::size_t k = 0; k < level.size(); ++k) body(k);
    } else {
      ex.parallel_for(level.size(), body);
    }
  }
}

namespace {

template <class Combine>
void subtree_combine(Executor& ex, const ChildrenCsr& children,
                     const LevelStructure& levels, vid* val,
                     Combine combine) {
  for (vid d = levels.num_levels; d-- > 0;) {
    const auto level = levels.level(d);
    const auto body = [&](std::size_t k) {
      const vid v = level[k];
      vid acc = val[v];
      for (const vid c : children.children(v)) acc = combine(acc, val[c]);
      val[v] = acc;
    };
    if (level.size() < kSerialLevelCutoff) {
      for (std::size_t k = 0; k < level.size(); ++k) body(k);
    } else {
      ex.parallel_for(level.size(), body);
    }
  }
}

}  // namespace

void subtree_min(Executor& ex, const ChildrenCsr& children,
                 const LevelStructure& levels, vid* val) {
  subtree_combine(ex, children, levels, val,
                  [](vid a, vid b) { return a < b ? a : b; });
}

void subtree_max(Executor& ex, const ChildrenCsr& children,
                 const LevelStructure& levels, vid* val) {
  subtree_combine(ex, children, levels, val,
                  [](vid a, vid b) { return a > b ? a : b; });
}

}  // namespace parbcc
